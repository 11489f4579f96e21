package gbrt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestGBRTSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := stepData(300, 4, rng)
	m := New(30, 0.1, 5)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if m.Predict(X[i]) != back.Predict(X[i]) {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
	// Importance survives too.
	a, b := m.FeatureImportance(), back.FeatureImportance()
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("importance differs after reload")
		}
	}
}

// TestGBRTRoundTripBatchForest checks that a reloaded model rebuilds its
// flattened forest: the batch fast path on the reloaded model must agree
// bitwise with the original model's per-row Predict.
func TestGBRTRoundTripBatchForest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := stepData(250, 5, rng)
	m := New(20, 0.15, 9)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(X))
	back.PredictBatchInto(out, X)
	for i, x := range X {
		if want := m.Predict(x); out[i] != want {
			t.Fatalf("reloaded batch prediction %d = %v, want %v", i, out[i], want)
		}
	}
}

func TestGBRTUnmarshalRejectsCorruptTrees(t *testing.T) {
	var m Model
	bad := `{"trees":[[{"f":0,"l":99,"r":1},{"f":-1,"v":1}]],"thresholds":[[0.5]]}`
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("dangling children accepted")
	}
	empty := `{"trees":[[]]}`
	if err := json.Unmarshal([]byte(empty), &m); err == nil {
		t.Fatal("empty tree accepted")
	}
	if err := json.Unmarshal([]byte("{"), &m); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// chainJSON is a one-tree model whose tree is a chain of depth splits on
// feature 0: split k, at node 2k, tests x <= k, sends the row left to the
// leaf k (node 2k+1, value k) and right to the next split. The last split's
// right child is the leaf depth.
func chainJSON(depth int) string {
	var b strings.Builder
	b.WriteString(`{"base":0.5,"trees":[[`)
	for k := 0; k < depth; k++ {
		fmt.Fprintf(&b, `{"f":0,"t":%d,"l":%d,"r":%d},{"f":-1,"v":%d},`, k, 2*k+1, 2*k+2, k)
	}
	fmt.Fprintf(&b, `{"f":-1,"v":%d}]]}`, depth)
	return b.String()
}

// TestGBRTUnmarshalRejectsCyclicAndDeepTrees: a split that is its own
// child, a child pointing back up the tree and a chain deeper than
// DepthLimit must all fail to load, and promptly. A cyclic tree used to
// load, after which Predict never returned.
func TestGBRTUnmarshalRejectsCyclicAndDeepTrees(t *testing.T) {
	cases := map[string]string{
		"self-loop": `{"trees":[[{"f":0,"t":0.5,"l":0,"r":0}]],"thresholds":[[0.5]]}`,
		"back edge": `{"trees":[[{"f":0,"t":0.5,"l":1,"r":2},{"f":-1,"v":1},{"f":0,"t":0.7,"l":0,"r":1}]]}`,
		"too deep":  chainJSON(DepthLimit + 1),
	}
	for name, doc := range cases {
		done := make(chan error, 1)
		go func() {
			var m Model
			err := json.Unmarshal([]byte(doc), &m)
			if err == nil {
				m.Predict([]float64{0.6})
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: load and predict did not return within 5 s", name)
		}
	}
}

// TestGBRTDepthLimitTreeLoads: a chain exactly DepthLimit deep loads, and
// every leaf of it, most of them far above the compiled depth, answers
// where the x <= t walk ends. Fit refuses to grow deeper than the limit.
func TestGBRTDepthLimitTreeLoads(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(chainJSON(DepthLimit)), &m); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= DepthLimit; k++ {
		// x = k-0.5 passes every split below k and goes left at split k.
		if got, want := m.Predict([]float64{float64(k) - 0.5}), 0.5+float64(k); got != want {
			t.Errorf("x=%v: got %v, want %v", float64(k)-0.5, got, want)
		}
	}
	deep := New(5, 0.1, 1)
	deep.MaxDepth = DepthLimit + 1
	if err := deep.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
		t.Errorf("Fit accepted MaxDepth %d, above the depth limit", deep.MaxDepth)
	}
}
