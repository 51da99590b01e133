package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// identicalResults asserts two identifications agree on regions and
// work counters.
func identicalResults(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("got %d regions, want %d", len(got.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		g, w := got.Regions[i], want.Regions[i]
		if !g.Pattern.Equal(w.Pattern) || g.Counts != w.Counts || g.NeighborCounts != w.NeighborCounts {
			t.Fatalf("region %d: got %+v want %+v", i, g, w)
		}
	}
	if got.Explored != want.Explored || got.NeighborOps != want.NeighborOps || got.Pruned != want.Pruned {
		t.Fatalf("counters: got %d/%d/%d want %d/%d/%d",
			got.Explored, got.NeighborOps, got.Pruned,
			want.Explored, want.NeighborOps, want.Pruned)
	}
}

func TestOnLevelSnapshotsSumToResult(t *testing.T) {
	d := biasedData(t)
	base := Config{TauC: 0.2, T: 1}
	full := mustIdentify(t, IdentifyOptimized, d, base)

	var snaps []LevelSnapshot
	cfg := base
	cfg.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
		snaps = append(snaps, snap)
		return nil
	}
	chk := mustIdentify(t, IdentifyOptimized, d, cfg)
	identicalResults(t, chk, full)

	// Lattice scope over 3 attributes: levels 3, 2, 1 in that order.
	if len(snaps) != 3 {
		t.Fatalf("got %d level snapshots, want 3", len(snaps))
	}
	sum := &Result{Space: full.Space}
	for i, snap := range snaps {
		if want := 3 - i; snap.Level != want {
			t.Errorf("snapshot %d is level %d, want %d", i, snap.Level, want)
		}
		sum.Regions = append(sum.Regions, snap.Regions...)
		sum.Explored += snap.Explored
		sum.NeighborOps += snap.NeighborOps
		sum.Pruned += snap.Pruned
	}
	h, err := NewHierarchy(d)
	if err != nil {
		t.Fatal(err)
	}
	h.sortRegions(sum.Regions)
	identicalResults(t, sum, full)
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	d := biasedData(t)
	base := Config{TauC: 0.2, T: 1, MinSize: 20}
	full := mustIdentify(t, IdentifyOptimized, d, base)

	var snaps []LevelSnapshot
	cfg := base
	cfg.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
		snaps = append(snaps, snap)
		return nil
	}
	mustIdentify(t, IdentifyOptimized, d, cfg)

	for k := 0; k <= len(snaps); k++ {
		rcfg := base
		rcfg.Resume = snaps[:k]
		res := mustIdentify(t, IdentifyOptimized, d, rcfg)
		identicalResults(t, res, full)

		// Every worker count honors the same snapshots.
		pcfg := rcfg
		pcfg.Workers = 4
		pres := mustIdentify(t, IdentifyOptimized, d, pcfg)
		identicalResults(t, pres, full)
	}
}

func TestResumeRoundTripsThroughJSON(t *testing.T) {
	// Checkpoints are persisted as JSON by the serving layer; a decoded
	// snapshot must resume as well as a live one.
	d := biasedData(t)
	base := Config{TauC: 0.2, T: 1}
	full := mustIdentify(t, IdentifyOptimized, d, base)

	var snaps []LevelSnapshot
	cfg := base
	cfg.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
		snaps = append(snaps, snap)
		return nil
	}
	mustIdentify(t, IdentifyOptimized, d, cfg)

	decoded := make([]LevelSnapshot, 0, len(snaps))
	for _, snap := range snaps[:2] {
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back LevelSnapshot
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, back)
	}
	rcfg := base
	rcfg.Resume = decoded
	identicalResults(t, mustIdentify(t, IdentifyOptimized, d, rcfg), full)
}

func TestOnLevelErrorAbortsTraversal(t *testing.T) {
	d := biasedData(t)
	boom := errors.New("journal full")
	calls := 0
	cfg := Config{TauC: 0.2, T: 1, OnLevel: func(context.Context, LevelSnapshot) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	}}
	_, err := IdentifyOptimized(d, cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the OnLevel error", err)
	}
	if calls != 2 {
		t.Fatalf("OnLevel called %d times, want 2 (abort after the failing level)", calls)
	}
}

// TestOnLevelSnapshotsSameAtAnyWorkerCount: the level barrier makes
// the checkpoints independent of the fan-out, so Workers=4 cuts the
// same snapshots, region order included, as Workers=1.
func TestOnLevelSnapshotsSameAtAnyWorkerCount(t *testing.T) {
	d := biasedData(t)
	run := func(workers int) ([]LevelSnapshot, *Result) {
		var snaps []LevelSnapshot
		cfg := Config{TauC: 0.2, T: 1, MinSize: 10, Workers: workers, OnLevel: func(_ context.Context, snap LevelSnapshot) error {
			snaps = append(snaps, snap)
			return nil
		}}
		return snaps, mustIdentify(t, IdentifyOptimized, d, cfg)
	}
	seqSnaps, seq := run(1)
	parSnaps, par := run(4)
	if len(seqSnaps) != 3 {
		t.Fatalf("got %d snapshots with Workers=1, want 3", len(seqSnaps))
	}
	if !reflect.DeepEqual(parSnaps, seqSnaps) {
		t.Fatalf("Workers=4 snapshots differ from Workers=1:\n got %+v\nwant %+v", parSnaps, seqSnaps)
	}
	identicalResults(t, par, seq)
}

func TestCheckpointConfigValidation(t *testing.T) {
	d := randomData(t, 100, 1)
	for _, cfg := range []Config{
		{TauC: 0.2, T: 1, Resume: []LevelSnapshot{{Level: 0}}},
		{TauC: 0.2, T: 1, Resume: []LevelSnapshot{{Level: -3}}},
	} {
		if _, err := IdentifyOptimized(d, cfg); err == nil {
			t.Errorf("config %+v accepted, want validation error", cfg)
		}
	}
}

func TestResumeScopeAndDuplicates(t *testing.T) {
	d := biasedData(t)
	base := Config{TauC: 0.2, T: 1, Scope: Top}
	full := mustIdentify(t, IdentifyOptimized, d, base)

	var snaps []LevelSnapshot
	cfg := base
	cfg.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
		snaps = append(snaps, snap)
		return nil
	}
	mustIdentify(t, IdentifyOptimized, d, cfg)
	if len(snaps) != 1 || snaps[0].Level != 1 {
		t.Fatalf("Top scope snapshots = %+v, want one level-1 snapshot", snaps)
	}

	rcfg := base
	rcfg.Resume = []LevelSnapshot{
		// A stale duplicate for level 1: the later snapshot must win.
		{Level: 1, Explored: 9999},
		snaps[0],
		// A snapshot outside the Top scope: ignored.
		{Level: 3, Explored: 7777},
	}
	identicalResults(t, mustIdentify(t, IdentifyOptimized, d, rcfg), full)
}
