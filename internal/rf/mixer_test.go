package rf

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

func TestMixerConversionGain(t *testing.T) {
	m, err := NewMixer(MixerConfig{Name: "m", ConversionGainDB: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := toneAt(512, 0.1, units.DBmToAmplitude(-30))
	out := m.Process(in)
	if got := units.MeanPowerDBm(out); math.Abs(got-(-22)) > 0.01 {
		t.Errorf("output %v dBm, want -22", got)
	}
}

func TestMixerIdealHasInfiniteImageRejection(t *testing.T) {
	m, _ := NewMixer(MixerConfig{Name: "ideal"})
	if !math.IsInf(m.ImageRejectionDB(), 1) {
		t.Errorf("ideal mixer IRR %v, want +Inf", m.ImageRejectionDB())
	}
	// Pass-through at 0 dB gain.
	x := m.ProcessSample(3 + 4i)
	if cmplx.Abs(x-(3+4i)) > 1e-12 {
		t.Errorf("ideal mixer altered the sample: %v", x)
	}
}

func TestMixerIQImbalanceCreatesImage(t *testing.T) {
	m, err := NewMixer(MixerConfig{
		Name: "iq", IQGainImbalanceDB: 0.5, IQPhaseErrorDeg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tone at +nu acquires an image at -nu whose suppression equals the
	// image rejection ratio.
	n := 1024
	bin := 100
	x := toneAt(n, float64(bin)/float64(n), 1)
	m.Process(x)
	fx := dsp.FFT(x)
	direct := cmplx.Abs(fx[bin])
	image := cmplx.Abs(fx[n-bin])
	gotIRR := 20 * math.Log10(direct/image)
	if math.Abs(gotIRR-m.ImageRejectionDB()) > 0.1 {
		t.Errorf("measured IRR %v dB, computed %v dB", gotIRR, m.ImageRejectionDB())
	}
	// Typical 0.5 dB / 2 deg imbalance gives IRR around 30 dB.
	if m.ImageRejectionDB() < 25 || m.ImageRejectionDB() > 40 {
		t.Errorf("IRR %v dB outside plausible range", m.ImageRejectionDB())
	}
}

func TestMixerDCOffset(t *testing.T) {
	m, err := NewMixer(MixerConfig{Name: "dc", EnableDC: true, DCOffsetDBm: -40})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Process(make([]complex128, 1000))
	if got := units.MeanPowerDBm(out); math.Abs(got-(-40)) > 0.01 {
		t.Errorf("DC power %v dBm, want -40", got)
	}
}

func TestMixerPhaseNoiseGrowsWithLinewidth(t *testing.T) {
	variance := func(lw float64) float64 {
		m, err := NewMixer(MixerConfig{
			Name: "pn", SampleRateHz: 20e6,
			LO: &LOConfig{LinewidthHz: lw, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, 20000)
		for i := range x {
			x[i] = 1
		}
		m.Process(x)
		var acc float64
		for _, v := range x {
			p := cmplx.Phase(v)
			acc += p * p
		}
		return acc / float64(len(x))
	}
	v0 := variance(0)
	v1 := variance(100)
	v2 := variance(10000)
	if v0 != 0 {
		t.Errorf("zero linewidth produced phase noise %v", v0)
	}
	if !(v2 > v1*10) {
		t.Errorf("phase variance %v (100 Hz) vs %v (10 kHz): not growing", v1, v2)
	}
}

func TestLOFrequencyOffset(t *testing.T) {
	lo, err := NewLO(LOConfig{FrequencyOffsetHz: 1e5, SampleRateHz: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	a := lo.Next()
	b := lo.Next()
	step := cmplx.Phase(b * cmplx.Conj(a))
	want := 2 * math.Pi * 1e5 / 20e6
	if math.Abs(step-want) > 1e-12 {
		t.Errorf("phase step %v, want %v", step, want)
	}
	lo.Reset()
	if got := lo.Next(); cmplx.Abs(got-a) > 1e-15 {
		t.Error("Reset did not restart the LO phase")
	}
}

func TestMixerNoiseFigure(t *testing.T) {
	fs := 20e6
	m, err := NewMixer(MixerConfig{
		Name: "nf", ConversionGainDB: 10, NoiseFigureDB: 9,
		SampleRateHz: fs, NoiseSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Process(make([]complex128, 100000))
	f := units.DBToLinear(9.0)
	want := units.WattsToDBm(units.Boltzmann*units.RoomTemperature*fs*(f-1)) + 10
	if got := units.MeanPowerDBm(out); math.Abs(got-want) > 0.3 {
		t.Errorf("mixer noise %v dBm, want %v", got, want)
	}
}

func TestMixerValidation(t *testing.T) {
	if _, err := NewMixer(MixerConfig{NoiseFigureDB: -2}); err == nil {
		t.Error("accepted negative NF")
	}
	if _, err := NewMixer(MixerConfig{NoiseFigureDB: 5}); err == nil {
		t.Error("accepted NF without sample rate")
	}
	if _, err := NewLO(LOConfig{LinewidthHz: -1}); err == nil {
		t.Error("accepted negative linewidth")
	}
	if _, err := NewLO(LOConfig{LinewidthHz: 10}); err == nil {
		t.Error("accepted linewidth without sample rate")
	}
}

// TestMixerProcessMatchesPerSample pins the frame path's pass split (noise,
// LO fill, planar kernel) to the per-sample pipeline bit for bit, phase
// noise and input noise included — the property that makes the kernels
// integration safe for every gated output.
func TestMixerProcessMatchesPerSample(t *testing.T) {
	cfg := MixerConfig{
		Name: "eq", ConversionGainDB: 3, NoiseFigureDB: 7,
		SampleRateHz: 20e6, NoiseSeed: 4,
		IQGainImbalanceDB: 0.4, IQPhaseErrorDeg: 1.5,
		EnableDC: true, DCOffsetDBm: -45,
		// Linewidth > 0 keeps the LO on the recurrence path, which is the
		// one that must match the per-sample stream exactly.
		LO: &LOConfig{LinewidthHz: 200, FrequencyOffsetHz: 1.1e5, Seed: 6},
	}
	mFrame, err := NewMixer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mSample, err := NewMixer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Odd length exercises any unroll tail in the kernels layer.
	x := make([]complex128, 1021)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, len(x))
	for i, v := range x {
		want[i] = mSample.ProcessSample(v)
	}
	got := mFrame.Process(x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: frame %v != per-sample %v", i, got[i], want[i])
		}
	}
}

// TestMixerTabledLOMatchesRationalPhase checks the noiseless rational-ratio
// frame path against the independent closed form: the phasor at sample t is
// the exact Sincos of 2*pi*((k*t) mod n)/n.
func TestMixerTabledLOMatchesRationalPhase(t *testing.T) {
	const k, n = 1, 8 // 2.5 MHz on a 20 MHz grid
	cfg := MixerConfig{
		Name: "tab", SampleRateHz: 20e6,
		IQGainImbalanceDB: 0.3, IQPhaseErrorDeg: 1,
		LO: &LOConfig{FrequencyOffsetHz: 2.5e6},
	}
	m, err := NewMixer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.lo.table == nil {
		t.Fatal("rational noiseless LO did not build a period table")
	}
	rng := rand.New(rand.NewSource(12))
	x := make([]complex128, 3*n+5) // non-multiple of the period
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	in := dsp.Clone(x)
	m.Process(x)
	for i, v := range in {
		s, c := math.Sincos(2 * math.Pi * float64((k*i)%n) / float64(n))
		y := m.mu*v + m.nu*complex(real(v), -imag(v))
		y *= complex(c, s)
		y = complex(m.g*real(y), m.g*imag(y))
		y += m.dc
		if x[i] != y {
			t.Fatalf("sample %d: %v != rational-phase form %v", i, x[i], y)
		}
	}
	// A second frame continues the period walk rather than restarting it.
	y2 := m.Process([]complex128{1})
	idx := (k * len(in)) % n
	s, c := math.Sincos(2 * math.Pi * float64(idx) / float64(n))
	w := m.mu + m.nu
	w *= complex(c, s)
	w = complex(m.g*real(w), m.g*imag(w))
	if y2[0] != w+m.dc {
		t.Fatalf("second frame phasor: %v, want %v", y2[0], w+m.dc)
	}
}

func TestRationalLORatio(t *testing.T) {
	cases := []struct {
		f0, fs float64
		k, n   int
		ok     bool
	}{
		{2.5e6, 20e6, 1, 8, true},
		{-2.5e6, 20e6, -1, 8, true},
		{20e6, 160e6, 1, 8, true},
		{0, 160e6, 0, 1, true},
		{1.1e5, 20e6, 11, 2000, true},
		{math.Pi * 1e6, 20e6, 0, 0, false},
		{1e5, 0, 0, 0, false},
	}
	for _, c := range cases {
		k, n, ok := rationalLORatio(c.f0, c.fs)
		if ok != c.ok || (ok && (k != c.k || n != c.n)) {
			t.Errorf("rationalLORatio(%g, %g) = %d/%d,%v want %d/%d,%v",
				c.f0, c.fs, k, n, ok, c.k, c.n, c.ok)
		}
	}
}

func TestMixerResetReproducible(t *testing.T) {
	m, _ := NewMixer(MixerConfig{
		Name: "rep", NoiseFigureDB: 10, SampleRateHz: 20e6, NoiseSeed: 9,
		LO: &LOConfig{LinewidthHz: 1000, Seed: 8},
	})
	a := dsp.Clone(m.Process(make([]complex128, 32)))
	m.Reset()
	b := m.Process(make([]complex128, 32))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("mixer not reproducible after Reset")
		}
	}
}
