package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/safety"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// pfhOf evaluates eq. (2) for a per-task assignment, independent of the
// optimizer's internal accounting.
func pfhOf(cfg safety.Config, tasks []task.Task, ns []int) float64 {
	return cfg.PlainPFH(tasks, ns)
}

func TestOptimizeReexecProfilesInfRequirement(t *testing.T) {
	s := example31(criticality.LevelD)
	ns, err := OptimizeReexecProfiles(safety.DefaultConfig(), s.ByClass(criticality.LO), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if n != 1 {
			t.Errorf("profiles = %v, want all ones", ns)
		}
	}
	if ns2, err := OptimizeReexecProfiles(safety.DefaultConfig(), nil, 1e-7); err != nil || len(ns2) != 0 {
		t.Errorf("empty group: %v %v", ns2, err)
	}
}

func TestOptimizeReexecProfilesFeasible(t *testing.T) {
	cfg := safety.DefaultConfig()
	s := example31(criticality.LevelD)
	hi := s.ByClass(criticality.HI)
	req := criticality.LevelB.PFHRequirement()
	ns, err := OptimizeReexecProfiles(cfg, hi, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := pfhOf(cfg, hi, ns); got > req {
		t.Errorf("pfh %g exceeds requirement %g", got, req)
	}
	// Example 3.1's HI tasks have similar rates: the greedy should land
	// at the uniform answer (3, 3).
	if ns[0] != 3 || ns[1] != 3 {
		t.Errorf("profiles = %v, want [3 3]", ns)
	}
}

// Per-task assignment beats the uniform profile when task rates differ
// widely: the slow task keeps a smaller profile.
func TestOptimizeReexecProfilesBeatsUniform(t *testing.T) {
	cfg := safety.DefaultConfig()
	fast := task.Task{Name: "fast", Period: timeunit.Milliseconds(10), Deadline: timeunit.Milliseconds(10),
		WCET: timeunit.Milliseconds(1), Level: criticality.LevelB, FailProb: 1e-3}
	slow := task.Task{Name: "slow", Period: timeunit.Milliseconds(1000), Deadline: timeunit.Milliseconds(1000),
		WCET: timeunit.Milliseconds(400), Level: criticality.LevelB, FailProb: 1e-3}
	group := []task.Task{fast, slow}
	req := criticality.LevelB.PFHRequirement()

	uniform, err := cfg.MinReexecProfile(group, req)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := OptimizeReexecProfiles(cfg, group, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := pfhOf(cfg, group, ns); got > req {
		t.Fatalf("infeasible assignment %v: pfh %g", ns, got)
	}
	costUniform := float64(uniform) * (fast.Utilization() + slow.Utilization())
	costPerTask := float64(ns[0])*fast.Utilization() + float64(ns[1])*slow.Utilization()
	if costPerTask >= costUniform {
		t.Errorf("per-task cost %.3f not below uniform %.3f (ns=%v uniform=%d)",
			costPerTask, costUniform, ns, uniform)
	}
	if ns[1] >= uniform {
		t.Errorf("slow task should need fewer attempts: ns=%v uniform=%d", ns, uniform)
	}
}

// Exhaustive cross-check on small instances: the greedy assignment is
// feasible and within the cost of the best uniform assignment.
func TestOptimizeReexecProfilesVsExhaustive(t *testing.T) {
	cfg := safety.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		var group []task.Task
		k := 2 + rng.Intn(2)
		for i := 0; i < k; i++ {
			period := timeunit.Milliseconds(int64(10 + rng.Intn(990)))
			wcet := timeunit.Time(1 + rng.Int63n(int64(period)/2))
			group = append(group, task.Task{
				Name: "t", Period: period, Deadline: period, WCET: wcet,
				Level: criticality.LevelB, FailProb: []float64{1e-2, 1e-3, 1e-4}[rng.Intn(3)],
			})
		}
		req := []float64{1e-5, 1e-7}[rng.Intn(2)]
		ns, err := OptimizeReexecProfiles(cfg, group, req)
		if err != nil {
			continue // requirement unreachable: fine for random draws
		}
		if got := pfhOf(cfg, group, ns); got > req {
			t.Fatalf("trial %d: infeasible greedy %v (pfh %g > %g)", trial, ns, got, req)
		}
		// Exhaustive optimum over n_i ∈ [1, 6].
		best := math.Inf(1)
		assign := make([]int, k)
		var walk func(i int)
		walk = func(i int) {
			if i == k {
				if pfhOf(cfg, group, assign) <= req {
					cost := 0.0
					for j, n := range assign {
						cost += float64(n) * group[j].Utilization()
					}
					best = math.Min(best, cost)
				}
				return
			}
			for n := 1; n <= 6; n++ {
				assign[i] = n
				walk(i + 1)
			}
		}
		walk(0)
		greedyCost := 0.0
		for j, n := range ns {
			greedyCost += float64(n) * group[j].Utilization()
		}
		if !math.IsInf(best, 1) && greedyCost > best*1.5+1e-9 {
			t.Errorf("trial %d: greedy cost %.4f far above optimum %.4f (ns=%v)", trial, greedyCost, best, ns)
		}
	}
}

func TestConvertPerTask(t *testing.T) {
	s := example31(criticality.LevelD)
	ns := []int{3, 4, 1, 1, 2}
	conv, err := ConvertPerTask(s, ns, 2)
	if err != nil {
		t.Fatal(err)
	}
	tasks := conv.Tasks()
	if tasks[0].CHI != ms(15) || tasks[0].CLO != ms(10) {
		t.Errorf("τ1 = %v", tasks[0])
	}
	if tasks[1].CHI != ms(16) || tasks[1].CLO != ms(8) {
		t.Errorf("τ2 = %v", tasks[1])
	}
	if tasks[4].CHI != ms(16) || tasks[4].CLO != ms(16) {
		t.Errorf("τ5 = %v", tasks[4])
	}
	// NPrime above a task's own profile clamps.
	conv2, err := ConvertPerTask(s, []int{1, 3, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if conv2.Tasks()[0].CLO != conv2.Tasks()[0].CHI {
		t.Error("clamp failed")
	}
}

func TestConvertPerTaskErrors(t *testing.T) {
	s := example31(criticality.LevelD)
	if _, err := ConvertPerTask(s, []int{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ConvertPerTask(s, []int{1, 1, 1, 1, 1}, 0); err == nil {
		t.Error("nprime 0 accepted")
	}
	if _, err := ConvertPerTask(s, []int{0, 1, 1, 1, 1}, 1); err == nil {
		t.Error("zero profile accepted")
	}
}

func TestUtilizationAfterReexec(t *testing.T) {
	s := example31(criticality.LevelD)
	uniform := UtilizationAfterReexec(s, []int{3, 3, 1, 1, 1})
	if math.Abs(uniform-1.08595) > 1e-4 {
		t.Errorf("U = %v, want 1.08595", uniform)
	}
}

func TestFTSPerTaskExample31(t *testing.T) {
	s := example31(criticality.LevelD)
	res, err := FTSPerTask(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Kill})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("expected success: %+v", res)
	}
	// Same rates: per-task matches the uniform solution here.
	want := []int{3, 3, 1, 1, 1}
	for i, n := range res.Reexec {
		if n != want[i] {
			t.Errorf("Reexec = %v, want %v", res.Reexec, want)
			break
		}
	}
	if res.NPrime != 2 {
		t.Errorf("NPrime = %d, want 2", res.NPrime)
	}
	if res.PFHHI > criticality.LevelB.PFHRequirement() {
		t.Errorf("pfh(HI) = %g violates B", res.PFHHI)
	}
}

// FTSPerTask accepts workloads uniform FTS rejects when one slow, heavy
// HI task inflates the uniform profile.
func TestFTSPerTaskBeatsUniformFTS(t *testing.T) {
	mk := func(name string, Tms, Cms int64, l criticality.Level, f float64) task.Task {
		return task.Task{Name: name, Period: ms(Tms), Deadline: ms(Tms), WCET: ms(Cms), Level: l, FailProb: f}
	}
	// fast (f = 1e-3, 360 000 rounds/h) drives the uniform level B
	// profile to n = 5, quintupling heavy's 0.2 utilization (U = 1.5:
	// hopeless). Per task, heavy (f = 1e-5, 900 rounds/h → 9e-8 at n = 2)
	// only needs two attempts and the design fits exactly.
	s := task.MustNewSet([]task.Task{
		mk("fast", 10, 1, criticality.LevelB, 1e-3),
		mk("heavy", 4000, 800, criticality.LevelB, 1e-5),
		mk("bg", 100, 10, criticality.LevelD, 1e-3),
	})
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	uni, err := FTS(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	per, err := FTSPerTask(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if uni.OK {
		t.Fatalf("uniform FTS unexpectedly accepted (n_HI=%d)", uni.NHI)
	}
	if !per.OK {
		t.Fatalf("per-task FTS should accept: %+v", per)
	}
	if per.Reexec[1] >= per.Reexec[0] {
		t.Errorf("heavy task should use fewer attempts than fast: %v", per.Reexec)
	}
}

// Acceptance comparison over random workloads: per-task FTS accepts at
// least as many sets as uniform FTS (both with EDF-VD).
func TestFTSPerTaskAcceptanceDominates(t *testing.T) {
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	uniCount, perCount := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelD, 0.75, 1e-3))
		if err != nil {
			t.Fatal(err)
		}
		uni, err := FTS(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		per, err := FTSPerTask(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if uni.OK {
			uniCount++
		}
		if per.OK {
			perCount++
		}
	}
	if perCount < uniCount {
		t.Errorf("per-task acceptance %d below uniform %d", perCount, uniCount)
	}
	if perCount == 0 {
		t.Error("nothing accepted: test exercised nothing")
	}
	t.Logf("acceptance over 40 sets at U=0.75, f=1e-3: uniform=%d per-task=%d", uniCount, perCount)
}

func TestFTSPerTaskRejectsBadOptions(t *testing.T) {
	s := example31(criticality.LevelD)
	if _, err := FTSPerTask(s, Options{}); err == nil {
		t.Error("expected options error")
	}
}

func TestFTSPerTaskDegradeMode(t *testing.T) {
	s := example31(criticality.LevelD)
	res, err := FTSPerTask(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Example 3.1 is over-loaded for the degradation test at any n′
	// (cf. TestFTEDFVDDegradeExample31LevelC reasoning with n_LO = 1):
	// whatever the verdict, the per-task path must agree with uniform.
	uni, err := FTS(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != uni.OK {
		t.Errorf("per-task OK=%v, uniform OK=%v (profiles equal on this set)", res.OK, uni.OK)
	}
}

// Consistency: the eq. (2) value the optimizer reports equals the safety
// package's own computation (guards against drift between the two
// accounting paths).
func TestOptimizerAccountingMatchesSafety(t *testing.T) {
	cfg := safety.DefaultConfig()
	s := example31(criticality.LevelD)
	hi := s.ByClass(criticality.HI)
	ns, err := OptimizeReexecProfiles(cfg, hi, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	direct := 0.0
	for i, tk := range hi {
		direct += float64(cfg.Rounds(tk, ns[i], timeunit.Hours(1))) * prob.Pow(tk.FailProb, ns[i])
	}
	if viaSafety := cfg.PlainPFH(hi, ns); math.Abs(direct-viaSafety) > 1e-18 {
		t.Errorf("accounting drift: %g vs %g", direct, viaSafety)
	}
}

// The per-task path through the adaptation-profile search with a finite
// LO requirement, in both modes (exercising its line-4 search).
func TestFTSPerTaskLevelC(t *testing.T) {
	s := example31(criticality.LevelC)
	// Killing: the no-kill limit already violates the level C budget only
	// when pfh stays above 1e-5 at every n'; with n_LO = 3 the limit is
	// tiny but the transient kill terms dominate, as in the uniform case.
	kill, err := FTSPerTask(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Kill})
	if err != nil {
		t.Fatal(err)
	}
	uniKill, err := FTS(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Kill})
	if err != nil {
		t.Fatal(err)
	}
	if kill.OK != uniKill.OK {
		t.Errorf("per-task kill OK=%v, uniform OK=%v (identical rates: must agree)", kill.OK, uniKill.OK)
	}
	if !kill.OK && kill.Reason == "" {
		t.Error("failure without reason")
	}
	// Degradation with the level C requirement: n¹ must be finite and the
	// analysis must agree with the uniform algorithm on this
	// equal-rate set.
	deg, err := FTSPerTask(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6})
	if err != nil {
		t.Fatal(err)
	}
	uniDeg, err := FTS(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 6})
	if err != nil {
		t.Fatal(err)
	}
	if deg.OK != uniDeg.OK {
		t.Errorf("per-task degrade OK=%v, uniform OK=%v", deg.OK, uniDeg.OK)
	}
}

// The kill-limit fail-fast in the per-task path: LO tasks whose no-kill
// limit already violates the requirement are rejected without scanning.
func TestMinAdaptPerTaskKillLimit(t *testing.T) {
	mkT := func(name string, Tms, Cms int64, l criticality.Level, f float64) task.Task {
		return task.Task{Name: name, Period: ms(Tms), Deadline: ms(Tms), WCET: ms(Cms), Level: l, FailProb: f}
	}
	// LO task with a hopeless failure rate for level C at n = 1.
	s := task.MustNewSet([]task.Task{
		mkT("hi", 100, 1, criticality.LevelB, 1e-9),
		mkT("lo", 100, 1, criticality.LevelC, 1e-3),
	})
	res, err := FTSPerTask(s, Options{Safety: safety.DefaultConfig(), Mode: safety.Kill})
	if err != nil {
		t.Fatal(err)
	}
	// The greedy profile search gives lo enough attempts to pass eq. (2),
	// so the verdict hinges on the kill analysis; whatever the outcome it
	// must be consistent and classified.
	if !res.OK && res.Reason == "" {
		t.Error("failure without reason")
	}
}
