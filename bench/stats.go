package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// order statistics (q in [0,1]); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the median and quartiles of a set of measurements.
type summary struct {
	Q1, Med, Q3 float64
}

func summarize(vals []float64) summary {
	s := sortedCopy(vals)
	return summary{Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// iqrShare is the interquartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Med
}

// quiet is the value a twentieth of vals are below: where a timing is
// reported (see quietShare). quietRate is its counterpart for a rate, where
// the fast end is the high one.
func quiet(vals []float64) float64 { return quantile(sortedCopy(vals), quietShare) }

func quietRate(vals []float64) float64 { return quantile(sortedCopy(vals), 1-quietShare) }

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// sortedNs returns whole-nanosecond samples as sorted float64s.
func sortedNs(samples []uint32) []float64 {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return s
}

// cpuTime is the process's CPU time so far, user plus system, over every
// thread — what getrusage(RUSAGE_SELF) reports.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail with valid arguments
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
