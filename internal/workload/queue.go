// Package workload builds the four 80-minute test workloads of Table I and
// the M/M/c queueing simulator behind Test-4 (a "shell workload" with
// Poisson arrival times and exponential service times, following Meisner &
// Wenisch's stochastic queuing simulation, the paper's reference [8]).
package workload

import (
	"fmt"
	"math"

	"repro/internal/randx"
	"repro/internal/units"
)

// QueueConfig parameterizes the M/M/c simulation.
type QueueConfig struct {
	Servers     int     // c: number of service slots (cores)
	ArrivalRate float64 // λ: jobs per second
	ServiceMean float64 // 1/μ: mean service seconds
	Duration    float64 // simulated seconds
	SampleEvery float64 // utilization sampling interval, seconds
	Seed        int64
}

// DefaultShellConfig returns the Test-4 shell workload calibration: a
// 32-core machine at ~40% average utilization with visible stochastic
// variation.
func DefaultShellConfig() QueueConfig {
	return QueueConfig{
		Servers:     32,
		ArrivalRate: 0.64,
		ServiceMean: 20,
		Duration:    4800,
		SampleEvery: 10,
		Seed:        1304,
	}
}

// Validate reports configuration errors.
func (c QueueConfig) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("workload: queue needs servers, got %d", c.Servers)
	}
	if c.ArrivalRate <= 0 || c.ServiceMean <= 0 {
		return fmt.Errorf("workload: arrival rate and service mean must be positive")
	}
	if c.Duration <= 0 || c.SampleEvery <= 0 {
		return fmt.Errorf("workload: duration and sampling interval must be positive")
	}
	if rho := c.ArrivalRate * c.ServiceMean / float64(c.Servers); rho >= 1 {
		return fmt.Errorf("workload: queue unstable, offered load ρ=%.2f ≥ 1", rho)
	}
	return nil
}

// QueueResult carries the simulated utilization trace and summary counters.
type QueueResult struct {
	SampleEvery  float64
	Utilization  []units.Percent // one sample per SampleEvery
	JobsArrived  int
	JobsFinished int
	MaxQueueLen  int
}

// SimulateMMC runs an event-driven M/M/c queue and samples machine
// utilization (busy servers / c) on a fixed grid.
func SimulateMMC(cfg QueueConfig) (QueueResult, error) {
	if err := cfg.Validate(); err != nil {
		return QueueResult{}, err
	}
	rng := randx.New(cfg.Seed)
	res := QueueResult{SampleEvery: cfg.SampleEvery}

	// Service completion times of busy servers; 0 length = all idle.
	busy := make([]float64, 0, cfg.Servers)
	queued := 0 // jobs waiting for a server
	nextArrival := rng.Exponential(1 / cfg.ArrivalRate)
	nextSample := 0.0
	now := 0.0

	popEarliest := func() (float64, int) {
		best, idx := math.Inf(1), -1
		for i, t := range busy {
			if t < best {
				best, idx = t, i
			}
		}
		return best, idx
	}

	for now < cfg.Duration {
		completion, ci := popEarliest()
		// Next event is the earliest of: sample, arrival, completion.
		next := math.Min(nextSample, math.Min(nextArrival, completion))
		if next > cfg.Duration {
			break
		}
		now = next

		switch {
		case now == nextSample:
			util := float64(len(busy)) / float64(cfg.Servers)
			res.Utilization = append(res.Utilization, units.FromFraction(util))
			nextSample += cfg.SampleEvery
		case now == nextArrival:
			res.JobsArrived++
			if len(busy) < cfg.Servers {
				busy = append(busy, now+rng.Exponential(cfg.ServiceMean))
			} else {
				queued++
				if queued > res.MaxQueueLen {
					res.MaxQueueLen = queued
				}
			}
			nextArrival = now + rng.Exponential(1/cfg.ArrivalRate)
		default: // completion
			res.JobsFinished++
			if queued > 0 {
				queued--
				busy[ci] = now + rng.Exponential(cfg.ServiceMean)
			} else {
				busy[ci] = busy[len(busy)-1]
				busy = busy[:len(busy)-1]
			}
		}
	}
	return res, nil
}
