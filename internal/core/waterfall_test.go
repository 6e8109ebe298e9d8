package core

import (
	"strings"
	"testing"
)

func TestWaterfallOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("waterfall too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 60
	fig, err := WaterfallBERvsSNR(base, []int{6, 54}, []float64{5, 15, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("%d series", len(fig.Series))
	}
	s6, s54 := fig.Series[0], fig.Series[1]
	// At 5 dB SNR, 6 Mbps decodes but 54 Mbps cannot.
	b6, _ := s6.YAt(5)
	b54, _ := s54.YAt(5)
	if !(b6 < 0.01 && b54 > 0.2) {
		t.Errorf("at 5 dB: BER(6 Mbps)=%v, BER(54 Mbps)=%v", b6, b54)
	}
	// At 30 dB both are clean.
	b6, _ = s6.YAt(30)
	b54, _ = s54.YAt(30)
	if b6 != 0 || b54 != 0 {
		t.Errorf("at 30 dB: BER(6)=%v BER(54)=%v", b6, b54)
	}
	if !strings.Contains(fig.String(), "54 Mbps") {
		t.Error("figure rendering lost series labels")
	}
	if _, err := WaterfallBERvsSNR(base, []int{7}, []float64{10}); err == nil {
		t.Error("accepted invalid rate")
	}
}

func TestSensitivitySearchFindsPaperRange(t *testing.T) {
	if testing.Short() {
		t.Skip("search too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 60
	base.RateMbps = 6
	sens, err := SensitivitySearch(base, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper specifies operation down to -88 dBm; the 6 Mbps mode of
	// the modeled line-up must reach at least that, and physics (kTB+NF)
	// bounds it above -102 dBm.
	if sens > -88 {
		t.Errorf("6 Mbps sensitivity %v dBm misses the paper's -88 dBm corner", sens)
	}
	if sens < -102 {
		t.Errorf("6 Mbps sensitivity %v dBm beats the thermal limit", sens)
	}
}

func TestSensitivitySearchValidation(t *testing.T) {
	base := DefaultConfig()
	if _, err := SensitivitySearch(base, 0, 1); err == nil {
		t.Error("accepted PER target 0")
	}
	if _, err := SensitivitySearch(base, 1.5, 1); err == nil {
		t.Error("accepted PER target > 1")
	}
}

func TestInputRangeCheckPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("range check too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 60
	res, err := InputRangeCheck(base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Errorf("input range check failed: %v", res)
	}
	if !strings.Contains(res.String(), "PASS") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestACRMeetsStandardRequirements(t *testing.T) {
	if testing.Short() {
		t.Skip("ACR bisection too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 3
	base.PSDULen = 60
	for _, rate := range []int{6, 54} {
		res, err := MeasureACR(base, rate)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass() {
			t.Errorf("%d Mbps: %v", rate, res)
		}
		if !strings.Contains(res.String(), "Mbps") {
			t.Error("formatting")
		}
	}
	// Robust rates tolerate more interference than fragile ones.
	r6, _ := MeasureACR(base, 6)
	r54, _ := MeasureACR(base, 54)
	if r6.RejectionDB <= r54.RejectionDB {
		t.Errorf("6 Mbps ACR %v not above 54 Mbps ACR %v", r6.RejectionDB, r54.RejectionDB)
	}
	if _, err := MeasureACR(base, 11); err == nil {
		t.Error("accepted a rate without an ACR requirement")
	}
}

func TestSpectralRegrowthSweep(t *testing.T) {
	pts, err := SpectralRegrowthSweep(54, []float64{-6, 0, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Monotone: more backoff, fewer violations.
	if !(pts[0].MaskViolations > pts[1].MaskViolations) {
		t.Errorf("overdrive (%d) not worse than 0 dB (%d)",
			pts[0].MaskViolations, pts[1].MaskViolations)
	}
	if pts[2].MaskViolations != 0 {
		t.Errorf("4 dB backoff still violates the mask (%d bins)", pts[2].MaskViolations)
	}
	if pts[0].WorstExcessDB <= pts[2].WorstExcessDB {
		t.Error("worst excess not decreasing with backoff")
	}
	// OFDM PAPR around 9-11 dB.
	if pts[0].PAPRdB < 7 || pts[0].PAPRdB > 13 {
		t.Errorf("PAPR %v dB implausible", pts[0].PAPRdB)
	}
	need, err := RequiredBackoffDB(pts)
	if err != nil || need != 4 {
		t.Errorf("required backoff %v (err %v), want 4 from this grid", need, err)
	}
	if _, err := RequiredBackoffDB(pts[:1]); err == nil {
		t.Error("reported a backoff when none meets the mask")
	}
	if _, err := SpectralRegrowthSweep(54, nil, 1); err == nil {
		t.Error("accepted empty sweep")
	}
	if _, err := SpectralRegrowthSweep(7, []float64{0}, 1); err == nil {
		t.Error("accepted invalid rate")
	}
}

func TestRunVerificationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 60
	rep, err := RunVerificationReport(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 5 {
		t.Fatalf("%d report items", len(rep.Items))
	}
	if !rep.Pass() {
		t.Errorf("default line-up fails its own sign-off:\n%s", rep.String())
	}
	for _, want := range []string{"link budget", "nominal link", "input range", "adjacent rejection", "transmit mask", "overall: PASS"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}
