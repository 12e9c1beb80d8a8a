package bin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// crxMagic identifies a serialized CRX image.
var crxMagic = [4]byte{'C', 'R', 'X', '1'}

// Marshal serializes the image to the CRX wire format. The format is a
// simple tagged little-endian layout; it exists so images can be written to
// disk by cmd/crasm and inspected or diffed.
func Marshal(img *Image) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	var b bytes.Buffer
	b.Write(crxMagic[:])
	writeString(&b, img.Name)
	b.WriteByte(byte(img.Kind))
	writeU32(&b, img.Entry)
	writeBytes(&b, img.Text)
	writeBytes(&b, img.Data)
	writeU32(&b, img.BSSSize)

	writeU32(&b, uint32(len(img.Imports)))
	for _, imp := range img.Imports {
		writeString(&b, imp.Module)
		writeString(&b, imp.Symbol)
	}

	// Exports are sorted for deterministic output.
	names := make([]string, 0, len(img.Exports))
	for n := range img.Exports {
		names = append(names, n)
	}
	sort.Strings(names)
	writeU32(&b, uint32(len(names)))
	for _, n := range names {
		writeString(&b, n)
		writeU32(&b, img.Exports[n])
	}

	writeU32(&b, uint32(len(img.Symbols)))
	for _, s := range img.Symbols {
		writeString(&b, s.Name)
		writeU32(&b, s.Offset)
		writeU32(&b, s.Size)
	}

	writeU32(&b, uint32(len(img.Relocs)))
	for _, r := range img.Relocs {
		writeU32(&b, r.Offset)
		writeU32(&b, r.Target)
	}

	writeU32(&b, uint32(len(img.Scopes)))
	for _, s := range img.Scopes {
		writeU32(&b, s.Func)
		writeU32(&b, s.Begin)
		writeU32(&b, s.End)
		writeU32(&b, s.Filter)
		writeU32(&b, s.Target)
	}
	return b.Bytes(), nil
}

// Unmarshal parses a serialized CRX image.
func Unmarshal(data []byte) (*Image, error) {
	r := &reader{data: data}
	var magic [4]byte
	r.read(magic[:])
	if magic != crxMagic {
		return nil, fmt.Errorf("unmarshal: bad magic %q", magic[:])
	}
	img := &Image{
		Name: r.str(),
		Kind: Kind(r.u8()),
	}
	img.Entry = r.u32()
	img.Text = r.bytes()
	img.Data = r.bytes()
	img.BSSSize = r.u32()

	nImp := r.u32()
	if err := r.checkCount(nImp, 2); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nImp; i++ {
		img.Imports = append(img.Imports, Import{Module: r.str(), Symbol: r.str()})
	}

	nExp := r.u32()
	if err := r.checkCount(nExp, 5); err != nil {
		return nil, err
	}
	if nExp > 0 {
		img.Exports = make(map[string]uint32, nExp)
	}
	for i := uint32(0); i < nExp; i++ {
		name := r.str()
		img.Exports[name] = r.u32()
	}

	nSym := r.u32()
	if err := r.checkCount(nSym, 9); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nSym; i++ {
		img.Symbols = append(img.Symbols, Symbol{Name: r.str(), Offset: r.u32(), Size: r.u32()})
	}

	nRel := r.u32()
	if err := r.checkCount(nRel, 8); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nRel; i++ {
		img.Relocs = append(img.Relocs, Reloc{Offset: r.u32(), Target: r.u32()})
	}

	nScope := r.u32()
	if err := r.checkCount(nScope, 20); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nScope; i++ {
		img.Scopes = append(img.Scopes, ScopeEntry{
			Func: r.u32(), Begin: r.u32(), End: r.u32(), Filter: r.u32(), Target: r.u32(),
		})
	}
	if r.err != nil {
		return nil, fmt.Errorf("unmarshal: %w", r.err)
	}
	if n := len(data) - r.off; n != 0 {
		return nil, fmt.Errorf("unmarshal: %d trailing bytes after %d scopes", n, nScope)
	}
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	return img, nil
}

func writeU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func writeBytes(b *bytes.Buffer, data []byte) {
	writeU32(b, uint32(len(data)))
	b.Write(data)
}

func writeString(b *bytes.Buffer, s string) { writeBytes(b, []byte(s)) }

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) read(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.data) {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
}

func (r *reader) u8() uint8 {
	var b [1]byte
	r.read(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if r.off+int(n) > len(r.data) {
		r.err = fmt.Errorf("truncated byte field at offset %d (want %d)", r.off, n)
		return nil
	}
	out := make([]byte, n)
	r.read(out)
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

// checkCount guards against hostile length fields that would allocate more
// elements than the remaining input could possibly encode (minSize bytes
// each).
func (r *reader) checkCount(n uint32, minSize int) error {
	if r.err != nil {
		return r.err
	}
	if int64(n)*int64(minSize) > int64(len(r.data)-r.off) {
		r.err = fmt.Errorf("count %d exceeds remaining input at offset %d", n, r.off)
		return r.err
	}
	return nil
}
