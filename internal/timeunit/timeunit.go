// Package timeunit provides the integer time base shared by all analyses
// and the simulator.
//
// Real-time schedulability analysis is exact arithmetic over task
// parameters; floating-point time would introduce spurious feasibility
// boundaries. All periods, deadlines, WCETs and simulation clocks are
// therefore kept as integer microseconds. The paper states task parameters
// in milliseconds and evaluates safety over horizons of full hours
// (OS ∈ [1, 10] h); both fit comfortably in int64 microseconds
// (an hour is 3.6e9 µs, int64 holds ~9.2e18).
package timeunit

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is a point in time or a duration, in microseconds.
//
// The zero value is time zero (or a zero-length duration). Negative values
// are legal as intermediate results of the analyses (e.g. t − n·C − m·T)
// and are handled by the formulas that produce them.
type Time int64

// Convenient unit multiples.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Milliseconds constructs a Time from a whole number of milliseconds.
func Milliseconds(ms int64) Time { return Time(ms) * Millisecond }

// Seconds constructs a Time from a whole number of seconds.
func Seconds(s int64) Time { return Time(s) * Second }

// Hours constructs a Time from a whole number of hours. The paper's PFH
// metric is defined per hour over an operation duration of OS hours.
func Hours(h int64) Time { return Time(h) * Hour }

// Ms reports the value in (possibly fractional) milliseconds, for display.
func (t Time) Ms() float64 { return float64(t) / float64(Millisecond) }

// Micros reports the raw microsecond count.
func (t Time) Micros() int64 { return int64(t) }

// Float reports the value in microseconds as a float64, for use inside
// probability formulas where the result is a probability, not a time.
func (t Time) Float() float64 { return float64(t) }

// Min returns the smaller of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the larger of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// MulSafe multiplies t by the non-negative integer k, panicking on
// overflow. Profile searches multiply WCETs by candidate re-execution
// counts; a silent wrap-around would turn an infeasible candidate into an
// apparently feasible one, so overflow is a programming error here.
func (t Time) MulSafe(k int) Time {
	if k < 0 {
		panic("timeunit: negative multiplier")
	}
	// 0 ≤ t < 2^31 µs (about 35 minutes) and k < 2^32 keep the product
	// below 2^63, so it needs no check; other operands take the division.
	if uint64(t) < 1<<31 && uint64(k) < 1<<32 {
		return t * Time(k)
	}
	if t == 0 || k == 0 {
		return 0
	}
	r := t * Time(k)
	if r/Time(k) != t {
		panic(fmt.Sprintf("timeunit: overflow multiplying %d µs by %d", int64(t), k))
	}
	return r
}

// DivFloor returns ⌊t/u⌋ with the convention of mathematical floor
// division (rounding toward −∞), which the round-counting formula (1)
// in the paper relies on for negative numerators.
func (t Time) DivFloor(u Time) int64 {
	if u <= 0 {
		panic("timeunit: non-positive divisor")
	}
	q := int64(t) / int64(u)
	if int64(t)%int64(u) != 0 && t < 0 {
		q--
	}
	return q
}

// String formats the time compactly using the largest exact unit, e.g.
// "25ms", "3.6s", "1h", "1500µs".
func (t Time) String() string {
	if t == 0 {
		return "0"
	}
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v%Hour == 0:
		return neg + strconv.FormatInt(int64(v/Hour), 10) + "h"
	case v%Second == 0:
		return neg + strconv.FormatInt(int64(v/Second), 10) + "s"
	case v%Millisecond == 0:
		return neg + strconv.FormatInt(int64(v/Millisecond), 10) + "ms"
	default:
		return neg + strconv.FormatInt(int64(v), 10) + "µs"
	}
}

// Parse reads a Time from a string of the form "<number><unit>" where unit
// is one of "us", "µs", "ms", "s", "m", "h". A bare number is taken as
// milliseconds, matching the unit the paper's tables use.
func Parse(s string) (Time, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("timeunit: empty duration")
	}
	unit := Millisecond
	num := s
	for _, suf := range []struct {
		text string
		u    Time
	}{
		{"µs", Microsecond}, {"us", Microsecond},
		{"ms", Millisecond},
		{"h", Hour}, {"m", Minute}, {"s", Second},
	} {
		if strings.HasSuffix(s, suf.text) {
			unit = suf.u
			num = strings.TrimSuffix(s, suf.text)
			break
		}
	}
	num = strings.TrimSpace(num)
	// Allow fractional values as long as they resolve to whole microseconds.
	if i := strings.IndexByte(num, '.'); i >= 0 {
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("timeunit: bad duration %q: %v", s, err)
		}
		v := f * float64(unit)
		r := Time(v)
		if float64(r) != v {
			return 0, fmt.Errorf("timeunit: %q is not a whole number of microseconds", s)
		}
		return r, nil
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timeunit: bad duration %q: %v", s, err)
	}
	return Time(n) * unit, nil
}
