package core

// Tests for the validated batch-prediction contract: ragged input is a
// typed data error (it arrives off the wire in the serving layer), a batch
// with repeated rows scores each distinct row once and answers exactly as
// the per-sample path does, a warm call allocates nothing, and concurrent
// PredictBatchInto callers sharing one Predictor must agree with the
// sequential per-sample path.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
)

// batchDataset builds a synthetic full-width training set; batch tests
// need a structurally valid predictor, not an accurate one.
func batchDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New()
	for i := 0; i < n; i++ {
		f := make([]float64, features.NumFeatures)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		ds.Samples = append(ds.Samples, &dataset.Sample{
			Design: "synthetic", OpID: i, Features: f,
			VertPct:     25 + 4*f[0] - 2*f[3] + rng.NormFloat64(),
			HorizPct:    20 + 3*f[1] + rng.NormFloat64(),
			AvgPct:      22 + 2*f[0] + rng.NormFloat64(),
			ReplicaRoot: -1,
		})
	}
	return ds
}

func batchRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

func TestPredictBatchIntoRaggedTypedError(t *testing.T) {
	p, err := Train(batchDataset(60, 3), TrainOptions{Kind: Linear, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if p.NumFeatures() != features.NumFeatures {
		t.Fatalf("NumFeatures = %d, want %d", p.NumFeatures(), features.NumFeatures)
	}

	rows := batchRows(4, 9)
	rows[2] = rows[2][:17] // one ragged row deep in the batch
	out := make([]float64, len(rows))
	err = p.PredictBatchInto(out, out, out, rows)
	var shape *BatchShapeError
	if !errors.As(err, &shape) {
		t.Fatalf("ragged batch returned %v, want *BatchShapeError", err)
	}
	if shape.Row != 2 || shape.Got != 17 || shape.Want != features.NumFeatures {
		t.Fatalf("shape error %+v, want Row=2 Got=17 Want=%d", shape, features.NumFeatures)
	}
	if !strings.Contains(shape.Error(), "row 2") {
		t.Fatalf("error text %q does not name the row", shape.Error())
	}

	// Validation runs before any scratch is touched: the same call with
	// the row restored succeeds.
	rows = batchRows(4, 9)
	vert := make([]float64, len(rows))
	horiz := make([]float64, len(rows))
	avg := make([]float64, len(rows))
	if err := p.PredictBatchInto(vert, horiz, avg, rows); err != nil {
		t.Fatalf("clean batch after ragged one: %v", err)
	}

	// An empty batch is a no-op success.
	if err := p.PredictBatchInto(nil, nil, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestPredictBatchIntoOutputLengthPanics(t *testing.T) {
	p, err := Train(batchDataset(60, 3), TrainOptions{Kind: Linear, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short output slice did not panic (caller bug, not data error)")
		}
	}()
	rows := batchRows(4, 9)
	short := make([]float64, 2)
	p.PredictBatchInto(short, short, short, rows)
}

// catalogRows returns the feature rows of the first n ops of a catalog
// design, one slice per op, so equal rows are equal bits in distinct
// slices.
func catalogRows(t testing.TB, name string, n int) [][]float64 {
	t.Helper()
	m := bench.Catalog()[name](bench.WithDirectives())
	ex, err := moduleExtractor(m, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := m.AllOps()[:n]
	rows := make([][]float64, len(ops))
	for i, o := range ops {
		rows[i] = ex.Vector(o)
	}
	return rows
}

// repeatedBatch is 64 real rows of optical_flow, which repeat, then rows
// the lookup must keep apart: one entry +0 in one row and −0 in another,
// one entry one ulp apart in two more, each sent again later. Those
// entries are ones rowSample does not read, so only the exact lookup can
// tell the rows apart.
func repeatedBatch(t testing.TB) [][]float64 {
	t.Helper()
	rows := catalogRows(t, "optical_flow", 64)
	variant := func(j int, v float64) []float64 {
		r := slices.Clone(rows[0])
		r[j] = v
		return r
	}
	pos, neg := variant(2, 0), variant(2, math.Copysign(0, -1))
	lo, hi := variant(1, 1.5), variant(1, math.Nextafter(1.5, 2))
	return append(rows, pos, neg, lo, hi, slices.Clone(neg), hi, slices.Clone(pos), rows[3])
}

// distinctSlots is the reference dedupe: each row's index among the
// distinct rows by exact bits, in first-occurrence order, and the index
// in rows of each distinct row.
func distinctSlots(rows [][]float64) (slot, first []int) {
	seen := map[string]int{}
	for i, row := range rows {
		var key []byte
		for _, v := range row {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		s, ok := seen[string(key)]
		if !ok {
			s = len(first)
			seen[string(key)] = s
			first = append(first, i)
		}
		slot = append(slot, s)
	}
	return slot, first
}

// kindPredictors is one predictor of every kind: the kept GBRT artifact
// and quick Linear and ANN fits.
func kindPredictors(t *testing.T) map[ModelKind]*Predictor {
	t.Helper()
	out := map[ModelKind]*Predictor{GBRT: keptPredictor(t)}
	for _, kind := range []ModelKind{Linear, ANN} {
		p, err := Train(batchDataset(60, 3), TrainOptions{Kind: kind, Seed: 1, Size: SizeQuick})
		if err != nil {
			t.Fatalf("train %s: %v", kind, err)
		}
		out[kind] = p
	}
	return out
}

func predictAll(t *testing.T, p *Predictor, rows [][]float64) (vert, horiz, avg []float64) {
	t.Helper()
	vert, horiz, avg = make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
	if err := p.PredictBatchInto(vert, horiz, avg, rows); err != nil {
		t.Fatal(err)
	}
	return vert, horiz, avg
}

// TestPredictBatchIntoDedupesRepeatedRows checks that scoring each
// distinct row once changes no answer: every row of a batch with repeats
// must equal, bit for bit, its PredictSample answer and its answer in a
// batch of the distinct rows alone.
func TestPredictBatchIntoDedupesRepeatedRows(t *testing.T) {
	rows := repeatedBatch(t)
	slot, first := distinctSlots(rows)
	if len(first) >= len(rows) {
		t.Fatalf("%d distinct rows of %d: the batch must have repeats", len(first), len(rows))
	}
	unique := make([][]float64, len(first))
	for k, i := range first {
		unique[k] = rows[i]
	}
	bits := math.Float64bits
	for kind, p := range kindPredictors(t) {
		v, h, a := predictAll(t, p, rows)
		uv, uh, ua := predictAll(t, p, unique)
		for i, row := range rows {
			sv, sh, sa := p.PredictSample(row)
			if bits(v[i]) != bits(sv) || bits(h[i]) != bits(sh) || bits(a[i]) != bits(sa) {
				t.Errorf("%s row %d: batch %v/%v/%v, PredictSample %v/%v/%v", kind, i, v[i], h[i], a[i], sv, sh, sa)
			}
			s := slot[i]
			if bits(v[i]) != bits(uv[s]) || bits(h[i]) != bits(uh[s]) || bits(a[i]) != bits(ua[s]) {
				t.Errorf("%s row %d: batch %v/%v/%v, distinct batch %v/%v/%v", kind, i, v[i], h[i], a[i], uv[s], uh[s], ua[s])
			}
		}
	}
}

// TestDistinctRowsMatchReference checks distinctRows against the
// reference dedupe, distinctSlots, in both of its uses: over the caller's
// rows, as PredictBatchInto adds them, and query-style, as PredictModule
// adds them, each row copied into the next free row of a reused buffer
// that is flushed whenever predictChunk distinct rows are held. The input
// is repeatedBatch, with its −0/+0 and one-ulp pairs that share a
// rowSample, then more distinct rows than a chunk holds, then
// repeatedBatch again, so the query-style pass crosses a chunk boundary.
func TestDistinctRowsMatchReference(t *testing.T) {
	repeated := repeatedBatch(t)
	for _, pair := range [][2]int{{64, 65}, {66, 67}} {
		if a, b := repeated[pair[0]], repeated[pair[1]]; rowSample(a) != rowSample(b) {
			t.Fatalf("rows %d and %d differ in their sample, so the exact lookup is not exercised", pair[0], pair[1])
		}
	}
	rows := append(slices.Clone(repeated), batchRows(predictChunk, 13)...)
	rows = append(rows, repeated...)

	// check compares d with the reference dedupe of batch, every slot and
	// the bits of each distinct row's first occurrence, and returns the
	// first occurrences.
	check := func(name string, d *distinctRows, batch [][]float64) []int {
		t.Helper()
		slot, first := distinctSlots(batch)
		if len(d.rows) != len(first) || len(d.slot) != len(slot) {
			t.Fatalf("%s: %d distinct rows and %d slots, want %d and %d",
				name, len(d.rows), len(d.slot), len(first), len(slot))
		}
		for k, i := range first {
			if rowKey(d.rows[k]) != rowKey(batch[i]) {
				t.Errorf("%s: distinct row %d is not row %d, its first occurrence", name, k, i)
			}
		}
		for i, s := range d.slot {
			if int(s) != slot[i] {
				t.Errorf("%s: row %d: slot %d, want %d", name, i, s, slot[i])
			}
		}
		return first
	}

	d := newDistinctRows()
	for _, row := range rows {
		d.add(row)
	}
	for k, i := range check("caller rows", &d, rows) {
		if &d.rows[k][0] != &rows[i][0] {
			t.Errorf("caller rows: distinct row %d is not a view of row %d", k, i)
		}
	}

	d.reset()
	buf := batchRows(predictChunk, 0)
	poison := make([]float64, features.NumFeatures)
	for i := range poison {
		poison[i] = math.NaN()
	}
	chunks, lo := 0, 0
	for i, row := range rows {
		free := buf[len(d.rows)]
		copy(free, row)
		if !d.add(free) {
			copy(free, poison) // a repeat leaves its row free to overwrite
			continue
		}
		if &d.rows[len(d.rows)-1][0] != &free[0] {
			t.Fatalf("query-style row %d: a new row is not held in the free buffer row", i)
		}
		if len(d.rows) == predictChunk {
			check(fmt.Sprintf("chunk %d", chunks), &d, rows[lo:i+1])
			chunks, lo = chunks+1, i+1
			d.reset()
		}
	}
	check(fmt.Sprintf("chunk %d", chunks), &d, rows[lo:])
	if chunks == 0 {
		t.Fatalf("no chunk of %d distinct rows filled", predictChunk)
	}
}

// TestPredictBatchIntoZeroAllocRepeats guards the serving path: once its
// pools are warm, a batch with repeated rows allocates nothing, and
// neither does PredictSample, for every model kind.
func TestPredictBatchIntoZeroAllocRepeats(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race: sync.Pool randomly drops Puts")
	}
	rows := repeatedBatch(t)
	vert, horiz, avg := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
	for kind, p := range kindPredictors(t) {
		predict := func() {
			if err := p.PredictBatchInto(vert, horiz, avg, rows); err != nil {
				t.Fatal(err)
			}
		}
		sample := func() { p.PredictSample(rows[0]) }
		for name, call := range map[string]func(){"PredictBatchInto": predict, "PredictSample": sample} {
			call() // warm the pools
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("%s: %s made %v allocs per call, want 0", kind, name, n)
			}
		}
	}
}

// TestPredictBatchIntoConcurrent hammers one Predictor from many
// goroutines under -race: the pooled scratch inside PredictBatchInto must
// be per-call, and every result must equal the sequential PredictSample
// answer bit for bit.
func TestPredictBatchIntoConcurrent(t *testing.T) {
	for _, kind := range ModelKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p, err := Train(batchDataset(80, 5), TrainOptions{Kind: kind, Seed: 2, Size: SizeQuick})
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			// 48 rows of 16 distinct ones, the repeats held in rows of
			// their own: every sub-batch of 17 rows or more has repeats,
			// so -race covers the pooled lookup and the reuse of its
			// cleared keys.
			base := batchRows(16, 11)
			rows := make([][]float64, 48)
			for i := range rows {
				rows[i] = slices.Clone(base[i*5%len(base)])
			}
			wantV := make([]float64, len(rows))
			wantH := make([]float64, len(rows))
			wantA := make([]float64, len(rows))
			for i, row := range rows {
				wantV[i], wantH[i], wantA[i] = p.PredictSample(row)
			}

			const workers = 8
			const iters = 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					vert := make([]float64, len(rows))
					horiz := make([]float64, len(rows))
					avg := make([]float64, len(rows))
					// Each worker slides over a different sub-batch each
					// iteration so batch sizes vary concurrently.
					for it := 0; it < iters; it++ {
						lo := (w + it) % len(rows)
						sub := rows[lo:]
						if err := p.PredictBatchInto(vert[:len(sub)], horiz[:len(sub)], avg[:len(sub)], sub); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						for i := range sub {
							if vert[i] != wantV[lo+i] || horiz[i] != wantH[lo+i] || avg[i] != wantA[lo+i] {
								t.Errorf("worker %d: row %d diverges from PredictSample", w, lo+i)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
