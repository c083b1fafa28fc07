package mathx

import (
	"math"
	"testing"
)

// exponential decay dy/dt = -y has solution y0·e^{-t}.
func decay(_ float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = -y[i]
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	y := []float64{1}
	scratch := NewScratch(1)
	dt := 0.01
	for i := 0; i < 100; i++ {
		RK4Step(decay, float64(i)*dt, y, dt, scratch)
	}
	want := math.Exp(-1)
	if math.Abs(y[0]-want) > 1e-8 {
		t.Fatalf("RK4 decay = %g, want %g", y[0], want)
	}
}

func TestRK4MoreAccurateThanEuler(t *testing.T) {
	dt := 0.1
	yr := []float64{1}
	ye := []float64{1}
	for i := 0; i < 10; i++ {
		RK4Step(decay, float64(i)*dt, yr, dt, nil)
		ye[0] -= dt * ye[0] // forward Euler on dy/dt = -y
	}
	want := math.Exp(-1)
	if math.Abs(yr[0]-want) >= math.Abs(ye[0]-want) {
		t.Fatalf("RK4 err %g not better than Euler err %g", math.Abs(yr[0]-want), math.Abs(ye[0]-want))
	}
}

func TestRK4CoupledSystem(t *testing.T) {
	// Harmonic oscillator: y'' = -y, energy conserved.
	f := func(_ float64, y, d []float64) {
		d[0] = y[1]
		d[1] = -y[0]
	}
	y := []float64{1, 0}
	scratch := NewScratch(2)
	dt := 0.01
	for i := 0; i < 6283; i++ { // ~one period (2π)
		RK4Step(f, float64(i)*dt, y, dt, scratch)
	}
	if math.Abs(y[0]-1) > 1e-3 || math.Abs(y[1]) > 1e-2 {
		t.Fatalf("oscillator after one period = %v", y)
	}
}
