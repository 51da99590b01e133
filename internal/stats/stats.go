// Package stats provides the statistical substrate shared by the rest of
// the repository: descriptive summaries, Welch's t-test (used to decide
// whether a subgroup's divergence is significant), and small helpers for
// deterministic pseudo-random sampling.
//
// Everything here is implemented on the standard library. The t-test
// p-values use the regularized incomplete beta function, so they match
// textbook Student-t tail probabilities rather than a normal
// approximation.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice, which is the convention the callers in this repository rely on
// (an empty subgroup contributes nothing).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. Slices with
// fewer than two elements have zero variance by convention.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Summary holds the sufficient statistics of a sample of a Bernoulli or
// real-valued indicator, as used by the divergence significance tests.
type Summary struct {
	N        int     // sample size
	Mean     float64 // sample mean
	Variance float64 // unbiased sample variance
}

// Summarize computes a Summary in one pass using Welford's algorithm,
// which is numerically stable for the long indicator vectors produced by
// the auditor.
func Summarize(xs []float64) Summary {
	var (
		n    int
		mean float64
		m2   float64
	)
	for _, x := range xs {
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
	}
	s := Summary{N: n, Mean: mean}
	if n > 1 {
		s.Variance = m2 / float64(n-1)
	}
	return s
}

// BernoulliSummary builds the Summary of a Bernoulli sample directly
// from its size and number of successes, avoiding materializing the
// indicator vector. The variance is the unbiased sample variance
// k(n-k) / (n(n-1)).
func BernoulliSummary(n, successes int) Summary {
	if n == 0 {
		return Summary{}
	}
	p := float64(successes) / float64(n)
	s := Summary{N: n, Mean: p}
	if n > 1 {
		s.Variance = float64(successes) * float64(n-successes) /
			(float64(n) * float64(n-1))
	}
	return s
}

// ErrDegenerate is returned by WelchT when both samples have zero
// variance or either sample is too small for the test to be defined.
var ErrDegenerate = errors.New("stats: degenerate samples for t-test")

// TTestResult reports a two-sample Welch's t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT performs a two-sample Welch's t-test on two summarized samples.
// The divergence auditor uses it to compare, e.g., the false-positive
// indicator within a subgroup against the rest of the dataset.
func WelchT(a, b Summary) (TTestResult, error) {
	if a.N < 2 || b.N < 2 {
		return TTestResult{}, ErrDegenerate
	}
	va := a.Variance / float64(a.N)
	vb := b.Variance / float64(b.N)
	if va+vb == 0 {
		if a.Mean == b.Mean {
			// Identical constant samples: no evidence of difference.
			return TTestResult{T: 0, DF: float64(a.N + b.N - 2), P: 1}, nil
		}
		// Constant but different samples: unbounded evidence.
		return TTestResult{T: math.Inf(sign(a.Mean - b.Mean)), DF: float64(a.N + b.N - 2), P: 0}, nil
	}
	t := (a.Mean - b.Mean) / math.Sqrt(va+vb)
	df := (va + vb) * (va + vb) /
		(va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	p := 2 * studentTTail(math.Abs(t), df)
	return TTestResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTTail returns P(T >= t) for T ~ Student-t with df degrees of
// freedom, t >= 0, via the regularized incomplete beta function.
func studentTTail(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) using the continued-fraction expansion from Numerical
// Recipes (betacf), accurate to ~1e-12 for the parameter ranges used by
// the t-test.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
