package fairness

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
)

func conf(tp, fp, tn, fn float64) ml.Confusion {
	return ml.Confusion{TP: tp, FP: fp, TN: tn, FN: fn}
}

func TestStatisticOf(t *testing.T) {
	c := conf(3, 1, 4, 2)
	cases := []struct {
		s    Statistic
		want float64
	}{
		{FPR, 0.2},
		{FNR, 0.4},
		{PositiveRate, 0.4},
		{Accuracy, 0.7},
		{ErrorRate, 0.3},
	}
	for _, tc := range cases {
		if got := tc.s.Of(c); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestUnknownStatistic(t *testing.T) {
	bad := Statistic("nope")
	if err := bad.Validate(); !errors.Is(err, ErrUnknownStatistic) {
		t.Fatalf("Validate = %v, want ErrUnknownStatistic", err)
	}
	if v := bad.Of(conf(1, 1, 1, 1)); !math.IsNaN(v) {
		t.Fatalf("unknown statistic Of = %v, want NaN", v)
	}
	if n, k := bad.BaseCount(conf(1, 1, 1, 1)); n != 0 || k != 0 {
		t.Fatalf("unknown statistic BaseCount = %d/%d, want 0/0", k, n)
	}
	for _, s := range []Statistic{FPR, FNR, PositiveRate, Accuracy, ErrorRate} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s.Validate = %v", s, err)
		}
	}
}

func TestBaseCount(t *testing.T) {
	c := conf(3, 1, 4, 2)
	if n, k := FPR.BaseCount(c); n != 5 || k != 1 {
		t.Fatalf("FPR base = %d/%d", k, n)
	}
	if n, k := FNR.BaseCount(c); n != 5 || k != 2 {
		t.Fatalf("FNR base = %d/%d", k, n)
	}
	if n, k := PositiveRate.BaseCount(c); n != 10 || k != 4 {
		t.Fatalf("PositiveRate base = %d/%d", k, n)
	}
	if n, k := Accuracy.BaseCount(c); n != 10 || k != 7 {
		t.Fatalf("Accuracy base = %d/%d", k, n)
	}
	if n, k := ErrorRate.BaseCount(c); n != 10 || k != 3 {
		t.Fatalf("ErrorRate base = %d/%d", k, n)
	}
}

func TestDivergenceAndIsFair(t *testing.T) {
	// Example 2: Δγ = |1 − 0.276| = 0.724, not 0.1-fair.
	if d := Divergence(1, 0.276); math.Abs(d-0.724) > 1e-12 {
		t.Fatalf("divergence = %v", d)
	}
	// Def. 1: g is τ_d-fair when Δγ_g ≤ τ_d.
	if Divergence(1, 0.276) <= 0.1 {
		t.Fatal("g1 must not be 0.1-fair")
	}
	// Δγ = |0.369 − 0.276| = 0.093 is 0.1-fair.
	if Divergence(0.369, 0.276) > 0.1 {
		t.Fatal("g2 must be 0.1-fair")
	}
}

func TestFairnessIndex(t *testing.T) {
	groups := []GroupOutcome{
		{Support: 0.2, Divergence: 0.3, Significant: true},  // counted
		{Support: 0.05, Divergence: 0.5, Significant: true}, // support too low
		{Support: 0.4, Divergence: 0.2, Significant: false}, // not significant
		{Support: 0.15, Divergence: 0.1, Significant: true}, // counted
	}
	if got := FairnessIndex(groups, 0.1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("index = %v, want 0.4", got)
	}
	if got := FairnessIndex(nil, 0.1); got != 0 {
		t.Fatalf("empty index = %v", got)
	}
}

func TestViolation(t *testing.T) {
	groups := []GroupOutcome{
		{Divergence: 0.5, BaseN: 10},  // 0.05 at totalBase 100
		{Divergence: 0.1, BaseN: 100}, // 0.10 — the max
		{Divergence: 0.9, BaseN: 1},   // 0.009
	}
	if got := Violation(groups, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("violation = %v, want 0.1", got)
	}
	if got := Violation(groups, 0); got != 0 {
		t.Fatalf("violation with empty base = %v", got)
	}
}
