package store

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ir"
)

// Columnar dataset payload codec.
//
// The layout is column-major: each field of the sample header is one
// contiguous array, and the feature matrix is a single flat rows×cols
// float64 block — exactly the backing-array layout ml.Matrix uses, so a
// restored dataset reconstructs the same full-capacity row-slice structure
// dataset.FromTrace builds and feeds the trainers without reshaping.
// Strings (design and source-file names) are interned in per-payload
// string tables; floats are stored as raw bits, so a decode is
// byte-exactly re-encodable — the property the crash-recovery check
// asserts with cmp.

const datasetVersion = 1

// EncodeDataset serializes a dataset in the columnar format. The encoding
// is canonical: the same dataset always yields the same bytes.
func EncodeDataset(ds *dataset.Dataset) []byte {
	n := len(ds.Samples)
	cols := len(ds.FeatureNames)
	designs, designIdx := internStrings(ds.Samples, func(s *dataset.Sample) string { return s.Design })
	files, fileIdx := internStrings(ds.Samples, func(s *dataset.Sample) string { return s.Src.File })

	// Size the buffer exactly: the feature block alone is 8 bytes per
	// cell (about 20 MB for the paper dataset), so a short estimate would
	// make append copy all of it into a second, larger buffer.
	size := 1 + 1 + 4 + 4 + 4 + 4 + n*(4+8+8+4+8+1+1+8+24) + 8*n*cols
	for _, table := range [][]string{ds.FeatureNames, designs, files} {
		for _, s := range table {
			size += 4 + len(s)
		}
	}
	b := make([]byte, 0, size)
	b = appendU8(b, payloadDataset)
	b = appendU8(b, datasetVersion)
	b = appendU32(b, uint32(cols))
	for _, name := range ds.FeatureNames {
		b = appendString(b, name)
	}
	b = appendU32(b, uint32(len(designs)))
	for _, d := range designs {
		b = appendString(b, d)
	}
	b = appendU32(b, uint32(len(files)))
	for _, f := range files {
		b = appendString(b, f)
	}
	b = appendU32(b, uint32(n))
	for i := range ds.Samples {
		b = appendU32(b, designIdx[i])
	}
	for _, s := range ds.Samples {
		b = appendI64(b, int64(s.OpID))
	}
	for _, s := range ds.Samples {
		b = appendI64(b, int64(s.Kind))
	}
	for i := range ds.Samples {
		b = appendU32(b, fileIdx[i])
	}
	for _, s := range ds.Samples {
		b = appendI64(b, int64(s.Src.Line))
	}
	for _, s := range ds.Samples {
		b = appendBool(b, s.Margin)
	}
	for _, s := range ds.Samples {
		b = appendBool(b, s.Replica)
	}
	for _, s := range ds.Samples {
		b = appendI64(b, int64(s.ReplicaRoot))
	}
	for _, s := range ds.Samples {
		b = appendF64(b, s.VertPct)
	}
	for _, s := range ds.Samples {
		b = appendF64(b, s.HorizPct)
	}
	for _, s := range ds.Samples {
		b = appendF64(b, s.AvgPct)
	}
	// The feature block: one flat rows×cols array, row-major.
	for _, s := range ds.Samples {
		if len(s.Features) != cols {
			// Canonical layout violated; encode zeros rather than shifting
			// every later row (decode still yields a structurally valid
			// dataset).
			for j := 0; j < cols; j++ {
				b = appendF64(b, 0)
			}
			continue
		}
		for _, v := range s.Features {
			b = appendF64(b, v)
		}
	}
	return b
}

// internStrings builds a first-appearance-ordered string table plus the
// per-sample index column.
func internStrings(samples []*dataset.Sample, get func(*dataset.Sample) string) ([]string, []uint32) {
	var table []string
	index := make(map[string]uint32)
	idx := make([]uint32, len(samples))
	for i, s := range samples {
		v := get(s)
		j, ok := index[v]
		if !ok {
			j = uint32(len(table))
			table = append(table, v)
			index[v] = j
		}
		idx[i] = j
	}
	return table, idx
}

// DecodeDataset reconstructs a dataset from a columnar payload. Arbitrary
// input returns an error, never a panic; all table indices and counts are
// bounds-checked before allocation.
func DecodeDataset(payload []byte) (ds *dataset.Dataset, err error) {
	defer func() {
		if r := recover(); r != nil {
			ds, err = nil, fmt.Errorf("store: decode dataset: invalid payload: %v", r)
		}
	}()
	r := newReader(payload)
	if k := r.u8("payload kind"); r.err == nil && k != payloadDataset {
		return nil, fmt.Errorf("store: payload kind %q is not a dataset", k)
	}
	if v := r.u8("dataset version"); r.err == nil && v != datasetVersion {
		return nil, fmt.Errorf("store: unsupported dataset version %d", v)
	}
	names := readStrings(r, "feature names")
	designs := readStrings(r, "design table")
	files := readStrings(r, "file table")
	n := r.count(1, "samples") // ≥ 1 byte per sample (the margin column)
	if r.err != nil {
		return nil, r.err
	}
	cols := len(names)
	designIdx := readU32s(r, n, "design idx")
	opIDs := readI64s(r, n, "op ids")
	kinds := readI64s(r, n, "kinds")
	fileIdx := readU32s(r, n, "file idx")
	lines := readI64s(r, n, "src lines")
	margins := readBools(r, n, "margins")
	replicas := readBools(r, n, "replicas")
	roots := readI64s(r, n, "replica roots")
	verts := readF64s(r, n, "vert labels")
	horizs := readF64s(r, n, "horiz labels")
	avgs := readF64s(r, n, "avg labels")
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 8*n*cols {
		return nil, fmt.Errorf("store: decode dataset: feature block is %d bytes, want %d",
			r.remaining(), 8*n*cols)
	}
	flat := make([]float64, n*cols)
	for i := range flat {
		flat[i] = r.f64("features")
	}
	if r.err != nil {
		return nil, r.err
	}
	ds = &dataset.Dataset{FeatureNames: names, Samples: make([]*dataset.Sample, n)}
	for i := 0; i < n; i++ {
		if int(designIdx[i]) >= len(designs) {
			return nil, fmt.Errorf("store: decode dataset: sample %d design index %d of %d",
				i, designIdx[i], len(designs))
		}
		if int(fileIdx[i]) >= len(files) {
			return nil, fmt.Errorf("store: decode dataset: sample %d file index %d of %d",
				i, fileIdx[i], len(files))
		}
		ds.Samples[i] = &dataset.Sample{
			Design:      designs[designIdx[i]],
			OpID:        int(opIDs[i]),
			Kind:        ir.OpKind(kinds[i]),
			Src:         ir.SourceLoc{File: files[fileIdx[i]], Line: int(lines[i])},
			Features:    flat[i*cols : (i+1)*cols : (i+1)*cols],
			VertPct:     verts[i],
			HorizPct:    horizs[i],
			AvgPct:      avgs[i],
			Margin:      margins[i],
			Replica:     replicas[i],
			ReplicaRoot: int(roots[i]),
		}
	}
	return ds, nil
}

func readStrings(r *reader, what string) []string {
	n := r.count(4, what)
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str(what)
	}
	return out
}

func readU32s(r *reader, n int, what string) []uint32 {
	if r.err != nil || r.remaining() < 4*n {
		r.fail(what)
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32(what)
	}
	return out
}

func readI64s(r *reader, n int, what string) []int64 {
	if r.err != nil || r.remaining() < 8*n {
		r.fail(what)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64(what)
	}
	return out
}

func readF64s(r *reader, n int, what string) []float64 {
	if r.err != nil || r.remaining() < 8*n {
		r.fail(what)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64(what)
	}
	return out
}

func readBools(r *reader, n int, what string) []bool {
	if r.err != nil || r.remaining() < n {
		r.fail(what)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.bool(what)
	}
	return out
}
