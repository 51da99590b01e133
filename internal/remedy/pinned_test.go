package remedy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// remedyPinnedWant pins every technique's remedied dataset and Report
// counters on fixed inputs: the SHA-256 prefix of the rows, labels and
// weights, then BiasedRegions, Added, Removed, Flipped and the number
// of actions. A change to how a region's rows are found or ordered
// shows up as a different digest.
var remedyPinnedWant = map[string]string{
	"adult/0.5/DP/iterative":  "09fcbd09125a23b99fd8c8b430f2c941 15 5174 0 0 15",
	"adult/0.5/DP/oneshot":    "5f55612f302c229697d0f28da99310e1 71 25978 0 0 71",
	"adult/0.5/DP/recount":    "09fcbd09125a23b99fd8c8b430f2c941 15 5174 0 0 15",
	"adult/0.5/MS/iterative":  "4cac38a86c007cfb2d982e456aed1139 17 0 0 808 17",
	"adult/0.5/MS/oneshot":    "dac4b2a4962d45b61e786a23112cd025 71 0 0 2502 71",
	"adult/0.5/MS/recount":    "4cac38a86c007cfb2d982e456aed1139 17 0 0 808 17",
	"adult/0.5/PS/iterative":  "29e567a24764ad1e72fac6c78ac27f52 17 806 806 0 17",
	"adult/0.5/PS/oneshot":    "a4e4eaec1f5e4bc0ba6fbd42ecc82cec 71 2074 2074 0 71",
	"adult/0.5/PS/recount":    "29e567a24764ad1e72fac6c78ac27f52 17 806 806 0 17",
	"adult/0.5/US/iterative":  "a65cccdb77240ebbbc2afc31df5f09fc 15 0 960 0 15",
	"adult/0.5/US/oneshot":    "33512f635f999a9c58621f6f0684109e 71 0 2058 0 71",
	"adult/0.5/US/recount":    "a65cccdb77240ebbbc2afc31df5f09fc 15 0 960 0 15",
	"compas/0.1/DP/iterative": "4d4f8a07c8e6e5faaf1d9ebde3cb734d 29 3236 0 0 29",
	"compas/0.1/DP/oneshot":   "2dd4501bab31d2767def0837b7240615 42 7878 0 0 42",
	"compas/0.1/DP/recount":   "4d4f8a07c8e6e5faaf1d9ebde3cb734d 29 3236 0 0 29",
	"compas/0.1/MS/iterative": "4d3ad7ac8199275a8c0aa516941b4fbf 27 0 0 1304 27",
	"compas/0.1/MS/oneshot":   "54e292a02f6d0a9bf9bcb974c66a8236 42 0 0 3643 42",
	"compas/0.1/MS/recount":   "4d3ad7ac8199275a8c0aa516941b4fbf 27 0 0 1304 27",
	"compas/0.1/PS/iterative": "2a864e4085eb0824070439cc250d8dc9 29 1403 1403 0 29",
	"compas/0.1/PS/oneshot":   "ff187a91bf5083c014ec91e08a6a2e2f 42 2497 2497 0 42",
	"compas/0.1/PS/recount":   "2a864e4085eb0824070439cc250d8dc9 29 1403 1403 0 29",
	"compas/0.1/US/iterative": "36bc2e908e733f8b40f16112ee1edbcc 26 0 2326 0 26",
	"compas/0.1/US/oneshot":   "812040743088fe0db300f1e8f9c3bde1 42 0 3598 0 42",
	"compas/0.1/US/recount":   "36bc2e908e733f8b40f16112ee1edbcc 26 0 2326 0 26",
	"compas/0.5/DP/iterative": "894b6103c6ac3a2e0ae6d1c89845f57e 5 2754 0 0 5",
	"compas/0.5/DP/oneshot":   "98509a2f13ad432c8a37c61c5276f1ae 16 7754 0 0 16",
	"compas/0.5/DP/recount":   "894b6103c6ac3a2e0ae6d1c89845f57e 5 2754 0 0 5",
	"compas/0.5/MS/iterative": "1f5865de47d8daa47013cf78cb98b69a 4 0 0 913 4",
	"compas/0.5/MS/oneshot":   "02510baf0380efca9cd4cd3dd1d01d82 16 0 0 2977 16",
	"compas/0.5/MS/recount":   "1f5865de47d8daa47013cf78cb98b69a 4 0 0 913 4",
	"compas/0.5/PS/iterative": "311446c08ab131ef95c3645a250f8129 4 913 913 0 4",
	"compas/0.5/PS/oneshot":   "700c79ce275244eeac0f79765c8dad5c 16 2388 2388 0 16",
	"compas/0.5/PS/recount":   "311446c08ab131ef95c3645a250f8129 4 913 913 0 4",
	"compas/0.5/US/iterative": "f57bbebe99a4156ca2d7ccf45c930660 3 0 858 0 3",
	"compas/0.5/US/oneshot":   "5437fe1b136af08a5f6e30e1838935e5 16 0 3394 0 16",
	"compas/0.5/US/recount":   "f57bbebe99a4156ca2d7ccf45c930660 3 0 858 0 3",
}

// datasetDigest hashes a dataset's rows, labels and weights.
func datasetDigest(d *dataset.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(d.Len()))
	for i, row := range d.Rows {
		for _, v := range row {
			put(uint64(v))
		}
		put(uint64(d.Labels[i]))
	}
	put(uint64(len(d.Weights)))
	for _, w := range d.Weights {
		put(math.Float64bits(w))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func TestRemedyOutputsPinned(t *testing.T) {
	inputs := []struct {
		name string
		d    *dataset.Dataset
		tauC float64
	}{
		{"compas/0.1", synth.CompasN(6172, 1), 0.1},
		{"compas/0.5", synth.CompasN(6172, 1), 0.5},
		{"adult/0.5", synth.AdultN(8000, 1), 0.5},
	}
	modes := []struct {
		name             string
		recount, oneShot bool
	}{{"iterative", false, false}, {"recount", true, false}, {"oneshot", false, true}}
	got := map[string]string{}
	for _, in := range inputs {
		for _, tech := range Techniques {
			for _, m := range modes {
				name := fmt.Sprintf("%s/%s/%s", in.name, tech, m.name)
				out, rep, err := Apply(in.d, Options{
					Identify:  core.Config{TauC: in.tauC, T: 1},
					Technique: tech,
					Seed:      1,
					Recount:   m.recount,
					OneShot:   m.oneShot,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[name] = fmt.Sprintf("%s %d %d %d %d %d", datasetDigest(out),
					rep.BiasedRegions, rep.Added, rep.Removed, rep.Flipped, len(rep.Actions))
			}
		}
	}
	for name, g := range got {
		if w := remedyPinnedWant[name]; g != w {
			t.Errorf("%s: got %q, want %q", name, g, w)
		}
	}
	if len(remedyPinnedWant) != len(got) {
		t.Errorf("%d pinned cases, ran %d", len(remedyPinnedWant), len(got))
	}
}
