package mathx

// Derivative computes dy/dt into dydt given time t and state y.
type Derivative func(t float64, y []float64, dydt []float64)

// RK4Step advances y by one classical Runge–Kutta step of size dt, in place.
// scratch must have 5 slices of len(y); pass nil to allocate internally.
func RK4Step(f Derivative, t float64, y []float64, dt float64, scratch [][]float64) {
	n := len(y)
	if scratch == nil || len(scratch) < 5 {
		scratch = make([][]float64, 5)
		for i := range scratch {
			scratch[i] = make([]float64, n)
		}
	}
	k1, k2, k3, k4, tmp := scratch[0], scratch[1], scratch[2], scratch[3], scratch[4]

	f(t, y, k1)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*dt*k1[i]
	}
	f(t+0.5*dt, tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*dt*k2[i]
	}
	f(t+0.5*dt, tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + dt*k3[i]
	}
	f(t+dt, tmp, k4)
	for i := 0; i < n; i++ {
		y[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// NewScratch allocates reusable scratch buffers for the steppers.
func NewScratch(n int) [][]float64 {
	s := make([][]float64, 5)
	for i := range s {
		s[i] = make([]float64, n)
	}
	return s
}
