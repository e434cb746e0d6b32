package core

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"caraoke/internal/phy"
)

// copySpikes deep-copies a scratch-backed result so it survives further
// calls on the same Scratch.
func copySpikes(spikes []Spike) []Spike {
	out := make([]Spike, len(spikes))
	for i, s := range spikes {
		out[i] = s
		out[i].Channels = append([]complex128(nil), s.Channels...)
	}
	return out
}

// TestScratchReuseMatchesFresh: one Scratch analyzing a sequence of
// different scenes (different collision sizes, so buffers regrow and
// carry state between calls) produces exactly what a fresh Scratch
// produces for each capture. This is the reuse-safety oracle: no call
// may observe a previous call's leftovers.
func TestScratchReuseMatchesFresh(t *testing.T) {
	s := newTestScene(t, 4021)
	var reused Scratch
	for _, nDevs := range []int{3, 12, 1, 7, 12, 5} {
		devs := s.placedDevices(nDevs)
		mc := s.collide(devs)
		got, err := reused.AnalyzeCapture(mc, s.param)
		if err != nil {
			t.Fatal(err)
		}
		got = copySpikes(got)
		want, err := AnalyzeCapture(mc, s.param) // throwaway scratch
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nDevs=%d: reused scratch diverges: %d spikes vs %d", nDevs, len(got), len(want))
		}
	}
}

// TestScratchAnalyzeCapturesReuseMatchesFresh covers the multi-query
// averaging path, serial and parallel, across scenes of varying size.
func TestScratchAnalyzeCapturesReuseMatchesFresh(t *testing.T) {
	s := newTestScene(t, 4022)
	var reused Scratch
	for _, tc := range []struct{ nDevs, queries, workers int }{
		{8, 5, 1}, {15, 3, 4}, {4, 8, 1}, {15, 5, 2},
	} {
		devs := s.placedDevices(tc.nDevs)
		mcs := s.collideQueries(devs, tc.queries)
		got, err := reused.AnalyzeCaptures(mcs, s.param, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		got = copySpikes(got)
		want, err := AnalyzeCaptures(mcs, s.param)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: reused scratch diverges: %d spikes vs %d", tc, len(got), len(want))
		}
	}
}

// TestAnalyzeCaptureSteadyStateAllocs: the single-capture analysis on a
// warmed Scratch allocates nothing — the tentpole's core assertion.
func TestAnalyzeCaptureSteadyStateAllocs(t *testing.T) {
	s := newTestScene(t, 4023)
	mc := s.collide(s.placedDevices(10))
	var sc Scratch
	if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AnalyzeCapture allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTryDecodeSteadyStateAllocs is the regression test for the
// satellite fix: repeated TryDecode calls (the common CRC-miss path
// while combining) must not allocate, and Add must reuse its
// accumulator.
func TestTryDecodeSteadyStateAllocs(t *testing.T) {
	s := newTestScene(t, 4024)
	devs := s.placedDevices(6)
	// Aim at a frequency none of the devices occupy: every TryDecode
	// fails its checksum, exercising the steady-state path forever.
	dec := NewDecoder(s.param.SampleRate, 987e3)
	cap1 := s.collide(devs).Reference()
	if err := dec.Add(cap1); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.TryDecode(); !errors.Is(err, ErrNeedMoreCollisions) {
		t.Fatalf("expected ErrNeedMoreCollisions, got %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dec.TryDecode(); !errors.Is(err, ErrNeedMoreCollisions) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state TryDecode allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if err := dec.Add(cap1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Add allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDecoderResetMatchesFresh: decoding through a Reset decoder gives
// the same frames and query counts as fresh decoders, and the frame
// returned before the Reset stays intact afterwards.
func TestDecoderResetMatchesFresh(t *testing.T) {
	caps, freqs, _, param := decodeFixture(t, 4025, 3, 60)
	decode := func(dec *Decoder) (*phy.Frame, int) {
		for _, c := range caps {
			if err := dec.Add(c.Reference()); err != nil {
				t.Fatal(err)
			}
			if f, err := dec.TryDecode(); err == nil {
				return f, dec.N()
			}
		}
		t.Fatalf("target %g Hz undecodable in fixture", dec.target)
		return nil, 0
	}
	reused := NewDecoder(param.SampleRate, freqs[0])
	var frames []*phy.Frame
	var queries []int
	for i, f := range freqs {
		if i > 0 {
			reused.Reset(f)
		}
		fr, n := decode(reused)
		frames = append(frames, fr)
		queries = append(queries, n)
	}
	for i, f := range freqs {
		fresh, n := decode(NewDecoder(param.SampleRate, f))
		if *frames[i] != *fresh || queries[i] != n {
			t.Errorf("target %g Hz: reused decoder (%v, %d queries), fresh (%v, %d)", f, frames[i], queries[i], fresh, n)
		}
	}
	// Frames decoded before a Reset must not alias decoder state.
	if frames[0].ID() == frames[1].ID() {
		t.Error("distinct targets decoded identical IDs — frame aliases decoder scratch?")
	}
}

// TestDecodeWithSICScratchReuse: the pooled SIC sweep on a reused
// Scratch equals a throwaway-scratch run on identical captures.
func TestDecodeWithSICScratchReuse(t *testing.T) {
	caps, _, devs, param := decodeFixture(t, 4026, 3, 40)
	snapshot := func() [][]complex128 {
		out := make([][]complex128, len(caps))
		for i, mc := range caps {
			out[i] = append([]complex128(nil), mc.Reference()...)
		}
		return out
	}
	src := func(capSet [][]complex128) CaptureSource {
		i := 0
		return func() ([]complex128, error) {
			c := capSet[i%len(capSet)]
			i++
			return c, nil
		}
	}
	var sc Scratch
	// Warm the scratch on an unrelated capture first.
	if _, err := sc.AnalyzeCapture(caps[0], param); err != nil {
		t.Fatal(err)
	}
	got, err := sc.DecodeWithSIC(src(snapshot()), param, len(devs)+2, 30)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeWithSIC(src(snapshot()), param, len(devs)+2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || len(got.Decoded) != len(want.Decoded) {
		t.Fatalf("reused scratch: %d rounds/%d decoded, fresh: %d/%d",
			got.Rounds, len(got.Decoded), want.Rounds, len(want.Decoded))
	}
	for f, w := range want.Decoded {
		g, ok := got.Decoded[f]
		if !ok || g.Frame.ID() != w.Frame.ID() || g.Queries != w.Queries {
			t.Errorf("CFO %.0f: reused %+v, fresh %+v", f, g, w)
		}
	}
}

// allocBudgets mirrors the alloc_budget section of BENCH_10.json: the
// checked-in steady-state allocation ceilings CI enforces.
type allocBudgets struct {
	AllocBudget struct {
		AnalyzeCapture  float64 `json:"analyze_capture_allocs_per_op"`
		AnalyzeCaptures float64 `json:"analyze_captures_allocs_per_op"`
		TryDecode       float64 `json:"try_decode_allocs_per_op"`
	} `json:"alloc_budget"`
}

// TestAllocBudget is the CI regression gate for the perf trajectory:
// steady-state allocations must not regress above the ceilings checked
// in with BENCH_10.json (which carries the PR 8 ceilings forward and
// adds the warmed multi-query path).
func TestAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_10.json")
	if err != nil {
		t.Fatalf("reading alloc budget baseline: %v", err)
	}
	var b allocBudgets
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing BENCH_10.json: %v", err)
	}
	s := newTestScene(t, 4028)
	mc := s.collide(s.placedDevices(10))
	var sc Scratch
	if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		sc.AnalyzeCapture(mc, s.param)
	}); got > b.AllocBudget.AnalyzeCapture {
		t.Errorf("AnalyzeCapture: %.1f allocs/op exceeds checked-in budget %.1f", got, b.AllocBudget.AnalyzeCapture)
	}
	mcs := s.collideQueries(s.placedDevices(10), 6)
	var scq Scratch
	if _, err := scq.AnalyzeCaptures(mcs, s.param, 1); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		scq.AnalyzeCaptures(mcs, s.param, 1)
	}); got > b.AllocBudget.AnalyzeCaptures {
		t.Errorf("AnalyzeCaptures: %.1f allocs/op exceeds checked-in budget %.1f", got, b.AllocBudget.AnalyzeCaptures)
	}
	dec := NewDecoder(s.param.SampleRate, 987e3)
	if err := dec.Add(mc.Reference()); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		dec.TryDecode()
	}); got > b.AllocBudget.TryDecode {
		t.Errorf("TryDecode: %.1f allocs/op exceeds checked-in budget %.1f", got, b.AllocBudget.TryDecode)
	}
}

// BenchmarkAnalyzeCapture measures the single-capture analysis: the
// pooled steady state against the allocating throwaway-scratch entry
// point. The delta is the tentpole's headline number (BENCH_8.json
// records this scene — seed 811, 12 devices — before and after).
func BenchmarkAnalyzeCapture(b *testing.B) {
	s := newTestScene(b, 811)
	mc := s.collide(s.placedDevices(12))
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeCapture(mc, s.param); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var sc Scratch
		if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.AnalyzeCapture(mc, s.param); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTryDecode measures the per-query decode attempt on the
// CRC-miss path — the §8 hot loop. Same fixture as the BENCH_8.json
// before/after rows.
func BenchmarkTryDecode(b *testing.B) {
	caps, freqs, _, param := decodeFixture(b, 907, 4, 8)
	dec := NewDecoder(param.SampleRate, freqs[0])
	if err := dec.Add(caps[0].Reference()); err != nil {
		b.Fatal(err)
	}
	dec.TryDecode() // warm the envelope/demod scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.TryDecode(); err != nil && !errors.Is(err, ErrNeedMoreCollisions) {
			b.Fatal(err)
		}
	}
}
