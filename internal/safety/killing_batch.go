package safety

import (
	"fmt"

	"repro/internal/task"
)

// KillingBatch is a loop over the scalar eq. (5) kernel, kept because
// the repository benchmark (perfbench/) still calls it. The next change
// to the benchmark times the scalar probe alone and deletes this file.

// KillJob is one eq. (5) evaluation of a batch: the LO tasks of a set
// under the uniform re-execution profile NLO, with the LO level killed
// by the uniform adaptation profile NPrime over the HI tasks. The task
// slices must stay unmutated for the duration of the KillingBatch call.
type KillJob struct {
	HI     []task.Task
	LO     []task.Task
	NPrime int // uniform killing profile n′ ≥ 1
	NLO    int // uniform LO re-execution profile n_LO ≥ 1
}

// BatchLO is the reusable state of KillingBatch: one adaptation model
// and one kernel scratch. The zero value is ready to use; one BatchLO
// belongs to one goroutine.
type BatchLO struct {
	adapt Adaptation
	scr   kernelScratch
}

// NewBatchLO returns an empty batch state. Equivalent to new(BatchLO).
func NewBatchLO() *BatchLO { return &BatchLO{} }

// KillingBatch evaluates eq. (5) for every job of the batch, writing
// pfh(LO) of job i to out[i], exactly as
//
//	adapt, _ := NewUniformAdaptation(c, jobs[i].HI, jobs[i].NPrime)
//	out[i] = c.KillingPFHLOUniform(jobs[i].LO, jobs[i].NLO, adapt)
//
// A nil b uses transient state. Panics on a malformed batch (profile < 1,
// len(out) ≠ len(jobs)), mirroring the scalar kernel's contract.
func (c Config) KillingBatch(jobs []KillJob, out []float64, b *BatchLO) {
	if len(out) != len(jobs) {
		panic(fmt.Sprintf("safety: %d outputs for %d batched jobs", len(out), len(jobs)))
	}
	if b == nil {
		b = NewBatchLO()
	}
	for i, jb := range jobs {
		if jb.NLO < 1 {
			panic(fmt.Sprintf("safety: batched LO re-execution profile must be >= 1, got %d", jb.NLO))
		}
		if _, err := b.adapt.init(c, jb.HI, nil, jb.NPrime); err != nil {
			panic(err) // NPrime < 1
		}
		out[i] = c.killingPFHLOFast(jb.LO, nil, jb.NLO, &b.adapt, &b.scr)
	}
}
