package store

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ir"
)

// testDataset builds a small dataset with the real feature layout, repeated
// strings (to exercise interning) and distinct per-sample values.
func testDataset() *dataset.Dataset {
	ds := dataset.New()
	cols := len(ds.FeatureNames)
	for i := 0; i < 5; i++ {
		feat := make([]float64, cols)
		for j := range feat {
			feat[j] = float64(i*cols + j)
		}
		ds.Samples = append(ds.Samples, &dataset.Sample{
			Design:      []string{"alpha", "beta"}[i%2],
			OpID:        100 + i,
			Kind:        ir.KindMul,
			Src:         ir.SourceLoc{File: []string{"a.cpp", "b.cpp"}[i%2], Line: 10 * i},
			Features:    feat,
			VertPct:     float64(i) * 1.5,
			HorizPct:    float64(i) * 2.5,
			AvgPct:      float64(i) * 2.0,
			Margin:      i%2 == 0,
			Replica:     i%3 == 0,
			ReplicaRoot: i - 1,
		})
	}
	return ds
}

func TestDatasetRoundtrip(t *testing.T) {
	ds := testDataset()
	enc := EncodeDataset(ds)
	dec, err := DecodeDataset(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.FeatureNames, ds.FeatureNames) {
		t.Error("feature names differ after roundtrip")
	}
	if len(dec.Samples) != len(ds.Samples) {
		t.Fatalf("samples = %d, want %d", len(dec.Samples), len(ds.Samples))
	}
	for i := range ds.Samples {
		if !reflect.DeepEqual(*dec.Samples[i], *ds.Samples[i]) {
			t.Errorf("sample %d differs:\n got %+v\nwant %+v", i, *dec.Samples[i], *ds.Samples[i])
		}
	}
	// Canonical: decode → re-encode is byte-identical.
	if !bytes.Equal(enc, EncodeDataset(dec)) {
		t.Error("re-encode is not byte-identical")
	}
}

func TestDatasetFlatBacking(t *testing.T) {
	dec, err := DecodeDataset(EncodeDataset(testDataset()))
	if err != nil {
		t.Fatal(err)
	}
	cols := len(dec.FeatureNames)
	for i, s := range dec.Samples {
		if len(s.Features) != cols || cap(s.Features) != cols {
			t.Fatalf("sample %d features len/cap = %d/%d, want %d/%d (flat backing, full-capacity rows)",
				i, len(s.Features), cap(s.Features), cols, cols)
		}
	}
}

func TestDatasetEncodesRaggedRowsAsZeros(t *testing.T) {
	ds := testDataset()
	ds.Samples[2].Features = []float64{1} // violates the shared layout
	dec, err := DecodeDataset(EncodeDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range dec.Samples[2].Features {
		if v != 0 {
			t.Fatalf("ragged row col %d = %v, want 0", j, v)
		}
	}
	if len(dec.Samples[2].Features) != len(ds.FeatureNames) {
		t.Error("ragged row lost the shared layout")
	}
}

func TestDatasetDecodeRejectsBadInput(t *testing.T) {
	enc := EncodeDataset(testDataset())
	for _, n := range []int{0, 1, 2, 6, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeDataset(enc[:n]); err == nil {
			t.Errorf("DecodeDataset accepted a %d-byte prefix", n)
		}
	}
	kind := append([]byte(nil), enc...)
	kind[0] = 'Z'
	if _, err := DecodeDataset(kind); err == nil {
		t.Error("DecodeDataset accepted a wrong payload kind")
	}
	ver := append([]byte(nil), enc...)
	ver[1] = 99
	if _, err := DecodeDataset(ver); err == nil {
		t.Error("DecodeDataset accepted an unknown version")
	}
}

func TestEmptyDatasetRoundtrip(t *testing.T) {
	ds := dataset.New()
	dec, err := DecodeDataset(EncodeDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Samples) != 0 || !reflect.DeepEqual(dec.FeatureNames, ds.FeatureNames) {
		t.Errorf("empty roundtrip: %d samples, names equal=%v",
			len(dec.Samples), reflect.DeepEqual(dec.FeatureNames, ds.FeatureNames))
	}
}
