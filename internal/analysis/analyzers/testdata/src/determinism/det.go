// Package determinism is a remedylint fixture for the seeded-RNG,
// wall-clock, and map-iteration-order rules.
package determinism

import (
	"fmt"
	"math/rand" // want "import of math/rand"
	"sort"
	"time"
)

func ambient() int {
	return rand.Intn(6) // want "package-level math/rand.Intn"
}

func wallClock() time.Time {
	return time.Now() // want "time.Now"
}

func waivedClock() time.Time {
	//lint:allow determinism fixture: sanctioned wall-clock read
	return time.Now()
}

// Consuming an injected, seeded *rand.Rand is the sanctioned pattern:
// naming the type is not a finding (only the import line above is).
func draw(r *rand.Rand) int {
	return r.Intn(6)
}

func unordered(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "range over map"
	}
}

func ordered(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// oversample is shaped like a per-cell oversampler: every draw inside
// the map range lands on a different cell from run to run.
func oversample(r *rand.Rand, byCell map[int][]int) []int {
	var out []int
	for _, cell := range byCell {
		for add := 0; add < 2; add++ {
			seed := cell[r.Intn(len(cell))]        // want "draw from *rand.Rand"
			out = append(out, pick(cell, seed, r)) // want "*rand.Rand passed to a call"
		}
	}
	return out
}

func pick(cell []int, seed int, r interface{ Intn(int) int }) int {
	if len(cell) == 1 {
		return seed
	}
	return cell[r.Intn(len(cell))]
}
