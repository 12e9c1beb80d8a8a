package bin

import (
	"bytes"
	"testing"
)

// FuzzImageParse feeds arbitrary bytes to the CRX unmarshaller. Hostile
// input must never panic, and any image the parser accepts must survive a
// canonical round trip: marshalling it and re-parsing the result is a
// fixpoint (raw input bytes need not be reproduced — Marshal sorts the
// export table).
func FuzzImageParse(f *testing.F) {
	seed := &Image{
		Name:    "seed.dll",
		Kind:    KindLibrary,
		Text:    []byte{byte(1)},
		Entry:   0,
		Exports: map[string]uint32{"fn": 0},
		Symbols: []Symbol{{Name: "fn", Offset: 0, Size: 1}},
	}
	if data, err := Marshal(seed); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("CRX1"))
	if data, err := Marshal(testImage(f)); err == nil {
		f.Add(data)
	}
	for _, tc := range scopeTableRejects(f) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Unmarshal(data)
		if err != nil {
			return
		}
		m1, err := Marshal(img)
		if err != nil {
			t.Fatalf("Unmarshal accepted an image Marshal rejects: %v", err)
		}
		img2, err := Unmarshal(m1)
		if err != nil {
			t.Fatalf("Marshal produced bytes Unmarshal rejects: %v", err)
		}
		m2, err := Marshal(img2)
		if err != nil {
			t.Fatalf("second Marshal failed: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("canonical encoding not a fixpoint:\n m1 = %x\n m2 = %x", m1, m2)
		}
	})
}
