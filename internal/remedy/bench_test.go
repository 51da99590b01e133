package remedy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// BenchmarkRemedy runs Algorithm 2 with each technique on a 6172-row
// synthetic ProPublica at τ_c = 0.1: the remedy layer behind Fig. 9b/9d.
func BenchmarkRemedy(b *testing.B) {
	d := synth.CompasN(6172, 1)
	for _, tech := range Techniques {
		b.Run(string(tech), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Apply(d, Options{
					Identify:  core.Config{TauC: 0.1, T: 1},
					Technique: tech,
					Seed:      1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
