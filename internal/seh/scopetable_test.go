package seh

// Scope-table section tests. The pipeline's only scope-table decoder is
// bin.Unmarshal: the CRX container ends in the scope table (a u32 count,
// then five little-endian u32 fields per entry), so a raw section blob
// parses as the tail of a host image's encoding. These tests feed blobs
// through that decoder and hold it to the section's strictness: no
// truncation, no trailing bytes, no count beyond the input, no inverted
// guarded range, and canonical re-encoding.

import (
	"encoding/binary"
	"reflect"
	"testing"

	"crashresist/internal/bin"
)

func validScopes() []bin.ScopeEntry {
	return []bin.ScopeEntry{
		{Func: 0, Begin: 4, End: 12, Filter: 40, Target: 20},
		{Func: 24, Begin: 28, End: 36, Filter: bin.FilterCatchAll, Target: 36},
	}
}

// scopeHost is the image a scope-table section is embedded in; its text
// covers every offset validScopes and the seed corpus use.
func scopeHost(scopes []bin.ScopeEntry) *bin.Image {
	return &bin.Image{Name: "scopes.dll", Kind: bin.KindLibrary, Text: make([]byte, 48), Scopes: scopes}
}

// hostPrefix returns the host's encoding up to its scope table.
func hostPrefix(tb testing.TB) []byte {
	tb.Helper()
	raw, err := bin.Marshal(scopeHost(nil))
	if err != nil {
		tb.Fatal(err)
	}
	return raw[:len(raw)-4] // drop the zero scope count
}

// appendScopeTable appends the raw section encoding of scopes to dst.
func appendScopeTable(dst []byte, scopes []bin.ScopeEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(scopes)))
	for _, s := range scopes {
		for _, v := range []uint32{s.Func, s.Begin, s.End, s.Filter, s.Target} {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// parseScopeTable decodes a raw section through bin.Unmarshal.
func parseScopeTable(prefix, data []byte) ([]bin.ScopeEntry, error) {
	img, err := bin.Unmarshal(append(append([]byte(nil), prefix...), data...))
	if err != nil {
		return nil, err
	}
	return img.Scopes, nil
}

func TestScopeTableRoundTrip(t *testing.T) {
	prefix := hostPrefix(t)
	want := validScopes()
	raw := appendScopeTable(nil, want)
	got, err := parseScopeTable(prefix, raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	enc, err := bin.Marshal(scopeHost(got))
	if err != nil {
		t.Fatal(err)
	}
	if again := enc[len(prefix):]; string(again) != string(raw) {
		t.Errorf("re-encoding is not canonical:\n got %x\nwant %x", again, raw)
	}
}

func TestScopeTableEmpty(t *testing.T) {
	got, err := parseScopeTable(hostPrefix(t), appendScopeTable(nil, nil))
	if err != nil {
		t.Fatalf("parse(empty): %v", err)
	}
	if got != nil {
		t.Errorf("empty table parsed to %+v, want nil", got)
	}
}

func TestScopeTableRejects(t *testing.T) {
	prefix := hostPrefix(t)
	valid := appendScopeTable(nil, validScopes())
	cases := []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"short count", []byte{1, 2, 3}},
		{"count exceeds input", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated entry", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"inverted range", appendScopeTable(nil, []bin.ScopeEntry{{Begin: 8, End: 8}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := parseScopeTable(prefix, tc.data); err == nil {
				t.Errorf("decoder accepted %q: %+v", tc.name, got)
			}
		})
	}
}

// FuzzScopeTableParse checks the decoder is total on arbitrary scope-table
// sections (no panics, no out-of-range reads) and that an accepted section
// round-trips exactly through the encoder.
func FuzzScopeTableParse(f *testing.F) {
	prefix := hostPrefix(f)
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(appendScopeTable(nil, validScopes()))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		scopes, err := parseScopeTable(prefix, data)
		if err != nil {
			return
		}
		enc, err := bin.Marshal(scopeHost(scopes))
		if err != nil {
			t.Fatalf("accepted scopes do not marshal: %v", err)
		}
		reenc := enc[len(prefix):]
		if string(reenc) != string(data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, reenc)
		}
		again, err := parseScopeTable(prefix, reenc)
		if err != nil {
			t.Fatalf("re-encoded table rejected: %v", err)
		}
		if !reflect.DeepEqual(again, scopes) {
			t.Fatalf("round trip diverged:\n first  %+v\n second %+v", scopes, again)
		}
	})
}
