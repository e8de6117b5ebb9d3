package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// TestSaveIsCanonical: one classifier has one encoding. Twenty saves are
// byte-identical, though gob writes maps in random order and the
// extractor holds three; a Load(Save(c)) round trip saves to the same
// bytes and classifies bit-identically. A payload in the earlier wire
// form, which wrote those maps as gob maps, still loads, into the same
// classifier, and a reader of that form refuses Save's payload rather
// than load it without its maps.
func TestSaveIsCanonical(t *testing.T) {
	clf, records := liteClassifier(t)
	if len(clf.extractor.MaliciousNameCounts) < 2 || len(clf.extractor.ContributedIDs) < 2 || len(clf.extractor.Imputed) < 2 {
		t.Fatalf("fixture maps too small to show an order: %d name counts, %d contributed IDs, %d imputed",
			len(clf.extractor.MaliciousNameCounts), len(clf.extractor.ContributedIDs), len(clf.extractor.Imputed))
	}
	save := func(c *Classifier) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := save(clf)
	for i := 1; i < 20; i++ {
		if got := save(clf); !bytes.Equal(got, want) {
			t.Fatalf("save %d differs from the first (%d vs %d bytes)", i+1, len(got), len(want))
		}
	}

	if err := gob.NewDecoder(bytes.NewReader(want)).Decode(&mapForm{}); err == nil {
		t.Error("a reader of the map form decoded Save's payload; it should refuse it")
	}

	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&mapForm{
		Features:            clf.extractor.Features,
		MaliciousNameCounts: clf.extractor.MaliciousNameCounts,
		ContributedIDs:      clf.extractor.ContributedIDs,
		Imputed:             clf.extractor.Imputed,
		Scaler:              clf.scaler,
		Model:               clf.model,
	}); err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"Save": want, "map form": old.Bytes()} {
		loaded, err := Load(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if !reflect.DeepEqual(loaded.extractor, clf.extractor) {
			t.Errorf("Load(%s): extractor differs from the saved one", name)
		}
		if got := save(loaded); !bytes.Equal(got, want) {
			t.Errorf("Load(%s) saves to %d bytes that differ from the original's %d", name, len(got), len(want))
		}
		for _, r := range records {
			v1, err1 := clf.Classify(r)
			v2, err2 := loaded.Classify(r)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1.Malicious != v2.Malicious || math.Float64bits(v1.Score) != math.Float64bits(v2.Score) {
				t.Fatalf("Load(%s) classifies %s as %+v, the original as %+v", name, r.ID, v2, v1)
			}
		}
	}
}
