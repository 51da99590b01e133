package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// almostEqual treats equal infinities as equal: Inf-Inf is NaN, which
// would otherwise fail the symmetry property on degenerate
// zero-variance samples where WelchT legitimately returns T = ±Inf.
func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased variance of the classic example is 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance(single) = %v, want 0", got)
	}
}

func TestSummarizeMatchesMeanVariance(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		s := Summarize(xs)
		return s.N == len(xs) &&
			almostEqual(s.Mean, Mean(xs), 1e-6) &&
			almostEqual(s.Variance, Variance(xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliSummary(t *testing.T) {
	// 6 successes out of 10: mean 0.6, unbiased variance 6*4/(10*9).
	s := BernoulliSummary(10, 6)
	if s.N != 10 || !almostEqual(s.Mean, 0.6, 1e-12) {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Variance, 24.0/90.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance, 24.0/90.0)
	}
	if s := BernoulliSummary(0, 0); s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestBernoulliSummaryMatchesIndicator(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		nn := int(n%50) + 2
		kk := int(k) % (nn + 1)
		xs := make([]float64, nn)
		for i := 0; i < kk; i++ {
			xs[i] = 1
		}
		a := BernoulliSummary(nn, kk)
		b := Summarize(xs)
		return almostEqual(a.Mean, b.Mean, 1e-9) && almostEqual(a.Variance, b.Variance, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Worked example: two small samples with a clear difference.
	a := Summarize([]float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4})
	b := Summarize([]float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 31.3})
	res, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values computed independently from the Welch formulas:
	// t = -2.94924, df = 27.31.
	if !almostEqual(res.T, -2.94924, 1e-4) {
		t.Fatalf("T = %v, want ~ -2.94924", res.T)
	}
	if !almostEqual(res.DF, 27.31, 0.01) {
		t.Fatalf("DF = %v, want ~ 27.31", res.DF)
	}
	if res.P > 0.01 || res.P < 0.003 {
		t.Fatalf("P = %v, want in (0.003, 0.01)", res.P)
	}
}

func TestWelchTIdenticalSamples(t *testing.T) {
	a := BernoulliSummary(100, 50)
	res, err := WelchT(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P < 0.99 {
		t.Fatalf("identical samples: T=%v P=%v", res.T, res.P)
	}
}

func TestWelchTDegenerate(t *testing.T) {
	if _, err := WelchT(Summary{N: 1}, Summary{N: 100, Mean: 0.5, Variance: 0.25}); err == nil {
		t.Fatal("expected ErrDegenerate for tiny sample")
	}
	// Two constant samples with different means: infinite evidence.
	res, err := WelchT(Summary{N: 10, Mean: 1}, Summary{N: 10, Mean: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("constant different samples: P=%v, want 0", res.P)
	}
}

// TestWelchTDegenerateSymmetry pins the quick.Check counterexample
// (seed-dependent, so it only rarely surfaced): two constant samples
// with different means, where WelchT legitimately returns T = ±Inf
// and the statistic must still negate cleanly under argument swap.
func TestWelchTDegenerateSymmetry(t *testing.T) {
	a := BernoulliSummary(6, 0)
	b := BernoulliSummary(5, 5)
	ra, errA := WelchT(a, b)
	rb, errB := WelchT(b, a)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v %v", errA, errB)
	}
	if !math.IsInf(ra.T, -1) || !math.IsInf(rb.T, 1) {
		t.Fatalf("want T = -Inf/+Inf, got %v/%v", ra.T, rb.T)
	}
	if !almostEqual(ra.T, -rb.T, 1e-9) || !almostEqual(ra.P, rb.P, 1e-9) {
		t.Fatalf("asymmetric: %+v vs %+v", ra, rb)
	}
}

func TestWelchTSymmetry(t *testing.T) {
	f := func(n1, k1, n2, k2 uint8) bool {
		a := BernoulliSummary(int(n1%60)+5, int(k1)%(int(n1%60)+6))
		b := BernoulliSummary(int(n2%60)+5, int(k2)%(int(n2%60)+6))
		ra, errA := WelchT(a, b)
		rb, errB := WelchT(b, a)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return almostEqual(ra.T, -rb.T, 1e-9) && almostEqual(ra.P, rb.P, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaProperties(t *testing.T) {
	// I_x(a,b) must be a CDF in x: boundaries, monotonicity, symmetry
	// identity I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v", got)
	}
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.05 {
		v := regIncBeta(2.5, 1.5, x)
		if v < prev-1e-12 {
			t.Fatalf("not monotone at x=%v", x)
		}
		prev = v
		sym := 1 - regIncBeta(1.5, 2.5, 1-x)
		if !almostEqual(v, sym, 1e-9) {
			t.Fatalf("symmetry broken at x=%v: %v vs %v", x, v, sym)
		}
	}
	// I_x(1,1) is the uniform CDF.
	if got := regIncBeta(1, 1, 0.37); !almostEqual(got, 0.37, 1e-9) {
		t.Fatalf("I_0.37(1,1) = %v", got)
	}
}

func TestStudentTTailKnownValues(t *testing.T) {
	// With df=10, P(T >= 2.228) ≈ 0.025 (classic table value).
	if got := studentTTail(2.228, 10); !almostEqual(got, 0.025, 0.001) {
		t.Fatalf("tail(2.228, 10) = %v, want ~0.025", got)
	}
	// Large df approaches the normal tail: P(Z >= 1.96) ≈ 0.025.
	if got := studentTTail(1.96, 1e6); !almostEqual(got, 0.025, 0.001) {
		t.Fatalf("tail(1.96, 1e6) = %v, want ~0.025", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(1)
	got := SampleWithoutReplacement(r, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// k >= n returns all indices.
	all := SampleWithoutReplacement(r, 5, 9)
	if len(all) != 5 {
		t.Fatalf("len = %d, want 5", len(all))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
}
