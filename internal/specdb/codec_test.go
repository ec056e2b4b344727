package specdb

// Byte-identity oracles for the single-pass spec codecs: encodeSpec
// against json.Marshal of the record, and spec.ParseDB against
// json.Unmarshal, over every spec the pipeline infers from the eval
// corpus and from the 10x kernelgen corpus.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/kernelgen"
	"seal/internal/spec"
)

var (
	codecOnce    sync.Once
	codecSpecs   map[string][]*spec.Spec
	codecCorpErr error
)

// codecCorpora infers the spec corpora once: the eval corpus and
// kernelgen with Instances=30, each validated and deduplicated the way
// `seal infer` writes them.
func codecCorpora(t *testing.T) map[string][]*spec.Spec {
	t.Helper()
	codecOnce.Do(func() {
		codecSpecs = make(map[string][]*spec.Spec)
		k30 := kernelgen.EvalConfig()
		k30.Instances = 30
		for name, cfg := range map[string]kernelgen.Config{"eval": kernelgen.EvalConfig(), "k30": k30} {
			db := &spec.DB{}
			for _, p := range kernelgen.Generate(cfg).Patches {
				a, err := p.Analyze()
				if err != nil {
					codecCorpErr = err
					return
				}
				db.Specs = append(db.Specs, detect.ValidateSpecs(a.PostProg, infer.InferPatch(a).Specs)...)
			}
			db.Dedup()
			codecSpecs[name] = db.Specs
		}
	})
	if codecCorpErr != nil {
		t.Fatal(codecCorpErr)
	}
	return codecSpecs
}

func TestEncodeSpecMatchesJSONMarshal(t *testing.T) {
	for name, specs := range codecCorpora(t) {
		if len(specs) == 0 {
			t.Fatalf("%s: corpus inferred no specs", name)
		}
		for i, sp := range specs {
			ord := uint64(i + 1)
			got, err := encodeSpec(ord, sp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(specRecord{Ord: ord, DB: &spec.DB{Specs: []*spec.Spec{sp}}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s spec %d (%s): encodeSpec differs from json.Marshal\n got %s\nwant %s", name, i, sp.Key(), got, want)
			}
		}
		t.Logf("%s: %d records byte-identical", name, len(specs))
	}
}

func TestParseDBMatchesUnmarshal(t *testing.T) {
	for name, specs := range codecCorpora(t) {
		data, err := json.MarshalIndent(&spec.DB{Specs: specs}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.ParseDB(data)
		if err != nil {
			t.Fatal(err)
		}
		var want spec.DB
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if len(got.Specs) != len(specs) || !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: ParseDB and json.Unmarshal decode different databases", name)
		}
	}
	for _, in := range []string{"", "null", `{"specs":[{"id":"x"`, `[]`, `"specs"`, `42`, `{"specs":{}}`, `{"specs":[]} trailing`} {
		got, gotErr := spec.ParseDB([]byte(in))
		var want spec.DB
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("ParseDB(%q) error %v, json.Unmarshal error %v", in, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, &want) {
			t.Errorf("ParseDB(%q) = %+v, json.Unmarshal = %+v", in, got, want)
		}
	}
}
