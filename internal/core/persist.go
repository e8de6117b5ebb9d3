package core

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"frappe/internal/svm"
)

// persistedClassifier is the gob wire form of a trained classifier. The
// Compiled field is optional — gob omits it when nil and ignores it when an
// older reader decodes a newer payload, so compiled artifacts ride the
// existing registry format without a version bump.
//
// The extractor's maps travel as key-sorted entry lists, because gob
// writes a map in its randomised iteration order: so one classifier
// always encodes to the same bytes, and a model file to one
// content-addressed model ID. The fields keep the names of mapForm's
// maps, so a reader of that form refuses this one instead of loading it
// without its maps.
type persistedClassifier struct {
	Features            []Feature
	MaliciousNameCounts []entry[string, int]
	ContributedIDs      []entry[string, bool]
	Imputed             []entry[Feature, float64]
	Scaler              *svm.Scaler
	Model               *svm.Model
	Compiled            *svm.CompiledModel
}

// mapForm is the earlier wire form, which wrote the extractor's maps as
// gob maps. Load still reads it.
type mapForm struct {
	Features            []Feature
	MaliciousNameCounts map[string]int
	ContributedIDs      map[string]bool
	Imputed             map[Feature]float64
	Scaler              *svm.Scaler
	Model               *svm.Model
	Compiled            *svm.CompiledModel
}

// entry is one map entry of the wire form.
type entry[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// sortedEntries returns m's entries in key order.
func sortedEntries[K cmp.Ordered, V any](m map[K]V) []entry[K, V] {
	es := make([]entry[K, V], 0, len(m))
	for k, v := range m {
		es = append(es, entry[K, V]{k, v})
	}
	slices.SortFunc(es, func(a, b entry[K, V]) int { return cmp.Compare(a.Key, b.Key) })
	return es
}

// mapOf rebuilds the map es lists; an empty list is a nil map, as gob
// decodes an empty map.
func mapOf[K cmp.Ordered, V any](es []entry[K, V]) map[K]V {
	if len(es) == 0 {
		return nil
	}
	m := make(map[K]V, len(es))
	for _, e := range es {
		m[e.Key] = e.Value
	}
	return m
}

func encodeClassifier(w io.Writer, c *Classifier) error {
	p := persistedClassifier{
		Features:            c.extractor.Features,
		MaliciousNameCounts: sortedEntries(c.extractor.MaliciousNameCounts),
		ContributedIDs:      sortedEntries(c.extractor.ContributedIDs),
		Imputed:             sortedEntries(c.extractor.Imputed),
		Scaler:              c.scaler,
		Model:               c.model,
		Compiled:            c.compiled,
	}
	if err := gob.NewEncoder(w).Encode(&p); err != nil {
		return fmt.Errorf("core: encoding classifier: %w", err)
	}
	return nil
}

// decodeWire decodes either wire form.
func decodeWire(r io.Reader) (persistedClassifier, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return persistedClassifier{}, err
	}
	var p persistedClassifier
	err = gob.NewDecoder(bytes.NewReader(data)).Decode(&p)
	if err == nil {
		return p, nil
	}
	var old mapForm
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&old) != nil {
		return persistedClassifier{}, err
	}
	return persistedClassifier{
		Features:            old.Features,
		MaliciousNameCounts: sortedEntries(old.MaliciousNameCounts),
		ContributedIDs:      sortedEntries(old.ContributedIDs),
		Imputed:             sortedEntries(old.Imputed),
		Scaler:              old.Scaler,
		Model:               old.Model,
		Compiled:            old.Compiled,
	}, nil
}

func decodeClassifier(r io.Reader) (*Classifier, error) {
	p, err := decodeWire(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding classifier: %w", err)
	}
	if p.Model == nil || p.Scaler == nil || len(p.Features) == 0 {
		return nil, fmt.Errorf("core: decoded classifier is incomplete")
	}
	if p.Compiled != nil {
		if err := p.Compiled.Validate(); err != nil {
			return nil, fmt.Errorf("core: decoded compiled artifact: %w", err)
		}
		if p.Compiled.InputDim != len(p.Features) {
			return nil, fmt.Errorf("core: compiled artifact dimension %d does not match %d features",
				p.Compiled.InputDim, len(p.Features))
		}
	}
	return &Classifier{
		extractor: Extractor{
			Features:            p.Features,
			MaliciousNameCounts: mapOf(p.MaliciousNameCounts),
			ContributedIDs:      mapOf(p.ContributedIDs),
			Imputed:             mapOf(p.Imputed),
		},
		scaler:   p.Scaler,
		model:    p.Model,
		compiled: p.Compiled,
	}, nil
}
