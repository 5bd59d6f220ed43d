package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/gen"
)

// decodeBody runs a request body through the handlers' decode path:
// the 1 MiB body cap and a decoder that rejects unknown fields.
func decodeBody(body []byte) (api.JobSpec, bool) {
	r := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	return decodeSpec(httptest.NewRecorder(), r)
}

// FuzzJobSpec fuzzes the dmopt-job/v1 admission path — decode, then
// Normalized and Validate as the handlers run them.  Nothing may panic,
// Normalized must be idempotent, and an accepted spec's canonical form
// must decode back to the same canonical bytes (it is the dedup key).
func FuzzJobSpec(f *testing.F) {
	p := gen.AES65()
	seeds := []any{
		api.JobSpec{Design: "AES-65", Scale: 0.1},
		api.JobSpec{Design: "jpeg-90", Mode: "QCP", XiNW: 500, Delta: 1, GridUm: 10},
		api.JobSpec{Preset: &p, Scale: 0.05, Mode: "qcp", Actuators: "JOINT", BiasGridUm: 30},
		api.JobSpec{Design: "AES-65", Mode: "wafer", Wafer: &api.WaferSpec{EdgeNm: 1.5, MaxOuter: 3}},
		api.JobSpec{Design: "AES-65", Actuators: "dose", LinSys: "ldlt", Workers: -4, DoseLo: -3, DoseHi: 3},
		api.JobSpec{Design: "AES-65", Mode: "qxp"},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"design":"AES-65","unknown":1}`))
	f.Add([]byte(`{"design":"AES-65","scale":-0,"tau_ps":1e308,"mode":"WAFER"}`))
	f.Add([]byte(`{"preset":{"name":"x"},"actuators":"BIAS","bias_lo_v":0.1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, ok := decodeBody(body)
		if !ok {
			return
		}
		n := spec.Normalized()
		if nn := n.Normalized(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalized is not idempotent:\n%+v\n%+v", n, nn)
		}
		if n.Validate() != nil {
			return
		}
		canon := n.MarshalCanonical()
		again, ok := decodeBody([]byte(canon))
		if !ok {
			t.Fatalf("canonical form %s does not decode", canon)
		}
		if c2 := again.MarshalCanonical(); c2 != canon {
			t.Fatalf("canonical form not stable:\n%s\n%s", canon, c2)
		}
	})
}
