package thermal

import (
	"math"
	"testing"
)

// t3Net builds the SPARC T3 server's die/sink network the way
// internal/server wires it — die0, sink0, die1, sink1 behind one inlet —
// with server.T3Config's thermal values at 2400 RPM, both sockets loaded
// alike, and settles it. It returns the network and the die leakage
// slopes.
func t3Net(tb testing.TB) (*Network, []float64) {
	tb.Helper()
	const (
		ambient   = 24.0
		cDie      = 33.0
		cSink     = 66.0
		rDie      = 0.30
		rSink     = 0.09 + 2200.0/2400 // RSinkBase + RSinkFlow/RPM
		perSocket = 60.0               // W, 70 % load plus leakage
		slope     = 0.4                // W/°C, leakage feedback per socket
	)
	n := NewNetwork(1)
	inlet := n.AddBoundary("inlet", ambient)
	slopes := make([]float64, 4)
	for s := 0; s < 2; s++ {
		die, err := n.AddNode("die", cDie, ambient)
		if err != nil {
			tb.Fatal(err)
		}
		sink, err := n.AddNode("sink", cSink, ambient)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := n.ConnectNodes(die, sink, 1/rDie); err != nil {
			tb.Fatal(err)
		}
		if _, err := n.ConnectBoundary(sink, inlet, 1/rSink); err != nil {
			tb.Fatal(err)
		}
		if err := n.SetPower(die, perSocket); err != nil {
			tb.Fatal(err)
		}
		slopes[die] = slope
	}
	if err := n.Settle(); err != nil {
		tb.Fatal(err)
	}
	return n, slopes
}

// BenchmarkStepLinearizedN times one macro ladder of k steps on the settled
// T3 network, restarted from the same temperatures every iteration (the
// bench/ rung thermal.step_linearized_ns.k<K> in miniature).
func BenchmarkStepLinearizedN(b *testing.B) {
	for _, k := range []int{2, 16, 256} {
		b.Run(benchName("k", k), func(b *testing.B) {
			n, slopes := t3Net(b)
			temps := nodeTemps(n)
			sums := make([]float64, len(temps))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, t := range temps {
					n.nodes[j].temp = t
				}
				if got := n.StepLinearizedN(1, k, slopes, math.MaxFloat64, sums); got != k {
					b.Fatalf("ladder climbed %d of %d steps", got, k)
				}
			}
		})
	}
}

// BenchmarkStepExact times one cached exact step of the settled T3
// network.
func BenchmarkStepExact(b *testing.B) {
	n, _ := t3Net(b)
	n.Step(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(1)
	}
}

// BenchmarkPropagatorBuild times one propagator build on the T3 network:
// system matrix, Van Loan exponential and twin map. allocs/op is the
// cached entry alone.
func BenchmarkPropagatorBuild(b *testing.B) {
	n, _ := t3Net(b)
	n.Step(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.cachePropagator(1, nil, n.condGen)
	}
}
