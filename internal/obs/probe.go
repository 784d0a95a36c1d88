package obs

import (
	"time"

	"repro/internal/metrics"
)

// Probe accumulates emulation-accuracy samples: on sampled periods the
// runtime re-solves the current demand set with the production solver
// (core.AllocState) and compares the rates the managers
// actually enforced against that oracle. Each sample folds the per-flow
// relative deviations |observed-oracle|/oracle into a mean and a max,
// appended here as virtual-time series.
//
// The probe is a data holder; the runtime owns scheduling (Every periods,
// offset to mid-period so every manager's loop has settled) and the
// oracle computation. Sampling allocates — that is the point of sampling:
// the steady-state loop stays allocation-free while accuracy is measured
// on a configurable subset of periods.
type Probe struct {
	// Every is the sampling interval in emulation periods (1 = every
	// period). Values below 1 are treated as 1.
	Every int
	// Mean is the per-sample mean relative share deviation over all
	// live flows.
	Mean metrics.TimeSeries
	// Max is the per-sample worst-flow relative share deviation.
	Max metrics.TimeSeries
	// Samples counts recorded probe samples.
	Samples int
}

// NewProbe builds an accuracy probe sampling every given number of
// emulation periods.
func NewProbe(everyPeriods int) *Probe {
	if everyPeriods < 1 {
		everyPeriods = 1
	}
	return &Probe{Every: everyPeriods}
}

// Record appends one sample at the given virtual time.
func (p *Probe) Record(at time.Duration, mean, max float64) {
	p.Mean.Add(at, mean)
	p.Max.Add(at, max)
	p.Samples++
}

// MeanBetween averages the mean-deviation series over a virtual-time
// window (inclusive), returning 0 when no samples fall inside it.
func (p *Probe) MeanBetween(from, to time.Duration) float64 {
	return p.Mean.MeanBetween(from, to)
}

// MaxBetween returns the worst max-deviation sample inside a virtual-time
// window (inclusive), or 0 when no samples fall inside it.
func (p *Probe) MaxBetween(from, to time.Duration) float64 {
	worst := 0.0
	for _, pt := range p.Max.Points {
		if pt.At >= from && pt.At <= to && pt.Value > worst {
			worst = pt.Value
		}
	}
	return worst
}
