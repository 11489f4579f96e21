package store

import (
	"strings"
	"testing"

	"repro/internal/flow"
)

// FuzzStoreDecode drives arbitrary bytes through every decoder in the
// store's read path: the entry container, the flow-result codec and the
// columnar dataset codec. The invariants
// under test are the store's robustness contract: no input may panic, and
// no input may yield an artifact that passes semantic verification for a
// key it does not hash to — corrupt bytes degrade to an error (recompute),
// never to a wrong result.
func FuzzStoreDecode(f *testing.F) {
	res := testResult(f)
	key := flow.CacheKey(res.Mod, res.Config)
	encRes, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	ds := testDataset()
	encDS := EncodeDataset(ds)

	f.Add([]byte{})
	f.Add([]byte{payloadResult})
	f.Add([]byte{payloadResult, resultVersion})
	f.Add([]byte{payloadDataset, datasetVersion, 0, 0, 0, 0})
	f.Add(encRes)
	f.Add(encDS)
	f.Add(encodeEntry(key, encRes))
	f.Add(encodeEntry(key, encDS))
	// Torn payloads: valid encodings cut short.
	f.Add(encRes[:len(encRes)/2])
	f.Add(encDS[:len(encDS)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Entry container: a successful decode means the embedded digest
		// matched the payload and the key round-tripped.
		if k, payload, err := decodeEntry(data); err == nil {
			reenc := encodeEntry(k, payload)
			if string(reenc) != string(data) {
				t.Fatal("decodeEntry accepted a non-canonical container")
			}
		}
		checkEntryHeader(data, int64(len(data)), key)

		// Flow-result codec: a successful decode must be internally
		// consistent — it verifies against its own recomputed key and
		// never against a key it wasn't derived from.
		if dec, err := DecodeResult(data); err == nil {
			own := flow.CacheKey(dec.Mod, dec.Config)
			if verr := VerifyResultKey(dec, own); verr != nil {
				t.Fatalf("decoded result fails verification against its own key: %v", verr)
			}
			if VerifyResultKey(dec, strings.Repeat("f", 64)) == nil {
				t.Fatal("decoded result verified against a foreign key")
			}
		}

		// Dataset codec: a successful decode keeps the columnar layout.
		if ds, err := DecodeDataset(data); err == nil {
			cols := len(ds.FeatureNames)
			for i, s := range ds.Samples {
				if len(s.Features) != cols {
					t.Fatalf("decoded sample %d has %d features, layout says %d", i, len(s.Features), cols)
				}
			}
		}
	})
}
