package blockzip

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"archis/internal/relstore"
)

// Columnar block format (format v2). Frozen segments are immutable and
// id-sorted, so instead of a zlib stream of per-row blobs, a block can
// store each attribute column contiguously: delta-encoded timestamps
// and ids, dictionary-encoded strings, packed ints. The columnar
// payload both deflates smaller (like values sit next to like values)
// and decodes into per-column vectors the batch kernels consume
// without materializing rows.
//
// On-disk layout of one columnar block:
//
//	byte 0   colMagic (0xC1)
//	byte 1   colVersion (1)
//	byte 2+  zlib(payload), zero-padded to the configured block size
//
// A legacy row-blob block is a bare zlib stream whose first byte is
// the CMF header, whose low nibble is always 8 (deflate), so the two
// formats are unambiguous and mixed stores — old archives with new
// columnar segments appended — decode per block.
//
// payload (before deflate):
//
//	uvarint nrows
//	uvarint ncols
//	ncols × ( uvarint seclen, seclen bytes of column section )
//
// Per-column section lengths let a reader skip straight to the columns
// a query needs; unneeded columns are never decoded.
//
// column section:
//
//	byte mode        0 = uniform kind (one kind byte follows)
//	                 1 = mixed (nrows kind bytes follow)
//	then, for each kind present in ascending Type order, the payload
//	for the rows of that kind in row order:
//	  Int, Date   signed varints: first value, then deltas
//	  Float       8-byte little-endian IEEE 754 each
//	  Bool        bitset, LSB first
//	  String      uvarint dict size, dict entries (uvarint len + bytes,
//	              first-occurrence order), then one uvarint index per row
//	  Null        nothing
//	  Bytes, XML  self-delimiting relstore.EncodeValue per row
const (
	colMagic   = 0xC1
	colVersion = 1
)

// maxDecodedCells bounds nrows*ncols so a corrupt header cannot make
// the decoder allocate an arbitrarily large arena.
const maxDecodedCells = 1 << 22

// colPayloadPool recycles the transient inflated-payload buffer across
// block decodes. Safe because nothing in a decoded batch aliases the
// payload: dictionary strings, opaque values and numeric vectors all
// copy out of it (the batch ownership contract).
var colPayloadPool = sync.Pool{New: func() any { return new([]byte) }}

// IsColumnarBlock reports whether stored block data is in the columnar
// format (as opposed to a legacy row-blob zlib stream).
func IsColumnarBlock(data []byte) bool {
	return len(data) >= 2 && data[0] == colMagic
}

// appendUvarint / appendVarint are tiny binary.PutUvarint wrappers that
// append instead of writing into a fixed buffer.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// encodeColumnar appends the uncompressed columnar payload for rows to
// dst. Every row must have the same column count.
func encodeColumnar(dst []byte, rows []relstore.Row) ([]byte, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("blockzip: columnar encode of zero rows")
	}
	ncols := len(rows[0])
	for _, r := range rows {
		if len(r) != ncols {
			return nil, fmt.Errorf("blockzip: columnar encode with ragged rows (%d vs %d cols)", len(r), ncols)
		}
	}
	dst = appendUvarint(dst, uint64(len(rows)))
	dst = appendUvarint(dst, uint64(ncols))
	var sec []byte
	for c := 0; c < ncols; c++ {
		var err error
		if sec, err = encodeColSection(sec[:0], rows, c); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, uint64(len(sec)))
		dst = append(dst, sec...)
	}
	return dst, nil
}

func encodeColSection(dst []byte, rows []relstore.Row, c int) ([]byte, error) {
	uniform := true
	k0 := rows[0][c].Kind
	for _, r := range rows {
		if r[c].Kind > relstore.TypeBool {
			return nil, fmt.Errorf("blockzip: columnar encode of unknown value kind %d", r[c].Kind)
		}
		if r[c].Kind != k0 {
			uniform = false
		}
	}
	if uniform {
		dst = append(dst, 0, byte(k0))
	} else {
		dst = append(dst, 1)
		for _, r := range rows {
			dst = append(dst, byte(r[c].Kind))
		}
	}
	for kind := relstore.TypeNull; kind <= relstore.TypeBool; kind++ {
		if uniform && kind != k0 {
			continue
		}
		if !uniform {
			// Absent kinds get no payload at all — the decoder skips
			// them by count, so even a zero-length header (the string
			// dictionary size) would misalign every later kind.
			present := false
			for _, r := range rows {
				if r[c].Kind == kind {
					present = true
					break
				}
			}
			if !present {
				continue
			}
		}
		switch kind {
		case relstore.TypeNull:
			// no payload
		case relstore.TypeInt, relstore.TypeDate:
			prev := int64(0)
			for _, r := range rows {
				if r[c].Kind != kind {
					continue
				}
				dst = appendVarint(dst, r[c].I-prev)
				prev = r[c].I
			}
		case relstore.TypeFloat:
			for _, r := range rows {
				if r[c].Kind != kind {
					continue
				}
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(r[c].F))
				dst = append(dst, tmp[:]...)
			}
		case relstore.TypeBool:
			var cur byte
			bit := 0
			for _, r := range rows {
				if r[c].Kind != kind {
					continue
				}
				if r[c].Truth {
					cur |= 1 << bit
				}
				if bit++; bit == 8 {
					dst = append(dst, cur)
					cur, bit = 0, 0
				}
			}
			if bit > 0 {
				dst = append(dst, cur)
			}
		case relstore.TypeString:
			// Dictionary in first-occurrence order; repeated values
			// (titles, department names) collapse to one entry.
			idx := map[string]uint64{}
			var dict []string
			var refs []uint64
			for _, r := range rows {
				if r[c].Kind != kind {
					continue
				}
				i, ok := idx[r[c].S]
				if !ok {
					i = uint64(len(dict))
					idx[r[c].S] = i
					dict = append(dict, r[c].S)
				}
				refs = append(refs, i)
			}
			dst = appendUvarint(dst, uint64(len(dict)))
			for _, s := range dict {
				dst = appendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
			for _, i := range refs {
				dst = appendUvarint(dst, i)
			}
		default: // TypeBytes, TypeXML: opaque self-delimiting fallback
			for _, r := range rows {
				if r[c].Kind != kind {
					continue
				}
				dst = relstore.EncodeValue(dst, r[c])
			}
		}
	}
	return dst, nil
}

// CompressColumnar packs rows into columnar blocks of exactly
// blockSize bytes each, using the same adaptive fitting loop as
// Compress (Algorithm 2): estimate rows per block from a sample, then
// grow or shrink until the deflated payload fits. A single row whose
// block does not fit gets an oversized, unpadded block (the BLOB
// escape hatch).
func CompressColumnar(rows []relstore.Row, blockSize int) ([]Block, error) {
	if blockSize <= 64 {
		return nil, fmt.Errorf("blockzip: block size %d too small", blockSize)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	maxPayload := blockSize - 2 // magic + version prefix

	sampleCount := len(rows)
	if sampleCount > 512 {
		sampleCount = 512
	}
	raw, err := encodeColumnar(nil, rows[:sampleCount])
	if err != nil {
		return nil, err
	}
	avgRow := float64(len(raw)) / float64(sampleCount)
	if avgRow < 1 {
		avgRow = 1
	}
	comp, err := deflate(raw)
	if err != nil {
		return nil, err
	}
	f0 := float64(len(raw)) / float64(len(comp))
	if f0 < 1 {
		f0 = 1
	}

	n := int(float64(maxPayload) * f0 / avgRow)
	if n < 1 {
		n = 1
	}

	var out []Block
	start := 0
	for start < len(rows) {
		count := n
		if start+count > len(rows) {
			count = len(rows) - start
		}
		tooBig := len(rows) + 1
		for {
			if raw, err = encodeColumnar(raw[:0], rows[start:start+count]); err != nil {
				return nil, err
			}
			if comp, err = deflate(raw); err != nil {
				return nil, err
			}
			if len(comp) <= maxPayload {
				gap := maxPayload - len(comp)
				extra := int(float64(gap) * f0 / avgRow)
				if extra >= 1 && start+count < len(rows) && count+1 < tooBig {
					grow := extra
					if start+count+grow > len(rows) {
						grow = len(rows) - start - count
					}
					if count+grow >= tooBig {
						grow = tooBig - 1 - count
					}
					if grow > 0 {
						count += grow
						continue
					}
				}
				padded := make([]byte, blockSize)
				padded[0] = colMagic
				padded[1] = colVersion
				copy(padded[2:], comp)
				out = append(out, Block{Data: padded, Records: count})
				break
			}
			if count < tooBig {
				tooBig = count
			}
			over := len(comp) - maxPayload
			shrink := int(float64(over) * f0 / avgRow)
			if shrink < 1 {
				shrink = 1
			}
			if count-shrink < 1 {
				if count == 1 {
					over := make([]byte, 2+len(comp))
					over[0] = colMagic
					over[1] = colVersion
					copy(over[2:], comp)
					out = append(out, Block{Data: over, Records: 1})
					break
				}
				shrink = count - 1
			}
			count -= shrink
		}
		start += count
		n = count
	}
	return out, nil
}

// DecodeColumnarBatch decodes the needed columns of a columnar block
// into b (nil needed decodes every column; a needed slice shorter than
// the block's column count treats missing entries as false). Skipped
// columns keep Present=false. The decoder never panics on corrupt
// input: every length and count is validated before use.
func DecodeColumnarBatch(data []byte, needed []bool, b *relstore.ColBatch) error {
	if !IsColumnarBlock(data) {
		return fmt.Errorf("blockzip: not a columnar block")
	}
	if data[1] != colVersion {
		return fmt.Errorf("blockzip: unknown columnar block version %d", data[1])
	}
	bufp := colPayloadPool.Get().(*[]byte)
	payload, err := inflateInto(*bufp, data[2:])
	if err == nil {
		*bufp = payload
	}
	defer colPayloadPool.Put(bufp)
	if err != nil {
		return fmt.Errorf("blockzip: columnar %w", err)
	}
	pos := 0
	nrowsU, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return fmt.Errorf("blockzip: corrupt columnar row count")
	}
	pos += n
	ncolsU, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return fmt.Errorf("blockzip: corrupt columnar column count")
	}
	pos += n
	if nrowsU == 0 || ncolsU == 0 || nrowsU > maxDecodedCells || ncolsU > maxDecodedCells ||
		nrowsU*ncolsU > maxDecodedCells {
		return fmt.Errorf("blockzip: implausible columnar shape %d x %d", nrowsU, ncolsU)
	}
	nrows, ncols := int(nrowsU), int(ncolsU)
	b.Reset(nrows, ncols)
	for c := 0; c < ncols; c++ {
		seclenU, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return fmt.Errorf("blockzip: corrupt columnar section length (col %d)", c)
		}
		pos += n
		seclen := int(seclenU)
		if seclen < 0 || pos+seclen > len(payload) {
			return fmt.Errorf("blockzip: columnar section overruns payload (col %d)", c)
		}
		sec := payload[pos : pos+seclen]
		pos += seclen
		if needed != nil && (c >= len(needed) || !needed[c]) {
			continue
		}
		if err := decodeColSection(sec, nrows, &b.Cols[c]); err != nil {
			return fmt.Errorf("blockzip: col %d: %w", c, err)
		}
	}
	return nil
}

func decodeColSection(sec []byte, nrows int, v *relstore.ColVec) error {
	if len(sec) < 1 {
		return fmt.Errorf("corrupt section header")
	}
	mode := sec[0]
	pos := 1
	switch mode {
	case 0:
		if len(sec) < 2 {
			return fmt.Errorf("truncated uniform kind")
		}
		k := relstore.Type(sec[1])
		if k > relstore.TypeBool {
			return fmt.Errorf("unknown kind %d", k)
		}
		v.Kind = k
		v.Kinds = v.Kinds[:0]
		pos = 2
	case 1:
		if len(sec) < 1+nrows {
			return fmt.Errorf("truncated kind array")
		}
		if cap(v.Kinds) < nrows {
			v.Kinds = make([]relstore.Type, nrows)
		}
		v.Kinds = v.Kinds[:nrows]
		for i := 0; i < nrows; i++ {
			k := relstore.Type(sec[1+i])
			if k > relstore.TypeBool {
				return fmt.Errorf("unknown kind %d", k)
			}
			v.Kinds[i] = k
		}
		pos = 1 + nrows
	default:
		return fmt.Errorf("unknown section mode %d", mode)
	}

	// One pass over the kinds (or none, for the common uniform section)
	// sizes every payload family; the per-kind decode loops below then
	// skip absent kinds by count and, when the section is uniform, run
	// without a per-row kind test at all.
	var counts [int(relstore.TypeBool) + 1]int
	if len(v.Kinds) == 0 {
		counts[v.Kind] = nrows
	} else {
		for _, k := range v.Kinds {
			counts[k]++
		}
	}
	haveI := counts[relstore.TypeInt]+counts[relstore.TypeDate]+counts[relstore.TypeBool] > 0
	haveF := counts[relstore.TypeFloat] > 0
	haveS := counts[relstore.TypeString] > 0
	haveAux := counts[relstore.TypeBytes]+counts[relstore.TypeXML] > 0
	if haveI {
		if cap(v.I) < nrows {
			v.I = make([]int64, nrows)
		}
		v.I = v.I[:nrows]
	}
	if haveF {
		if cap(v.F) < nrows {
			v.F = make([]float64, nrows)
		}
		v.F = v.F[:nrows]
	}
	if haveS {
		if cap(v.S) < nrows {
			v.S = make([]string, nrows)
		}
		v.S = v.S[:nrows]
	}
	if haveAux {
		if cap(v.Aux) < nrows {
			v.Aux = make([]relstore.Value, nrows)
		}
		v.Aux = v.Aux[:nrows]
	}

	var kinds []relstore.Type // nil for a uniform section: loops skip the kind test
	if len(v.Kinds) != 0 {
		kinds = v.Kinds
	}
	for kind := relstore.TypeNull; kind <= relstore.TypeBool; kind++ {
		count := counts[kind]
		if count == 0 {
			continue
		}
		switch kind {
		case relstore.TypeNull:
			// no payload
		case relstore.TypeInt, relstore.TypeDate:
			prev := int64(0)
			for i := 0; i < nrows; i++ {
				if kinds != nil && kinds[i] != kind {
					continue
				}
				d, n := binary.Varint(sec[pos:])
				if n <= 0 {
					return fmt.Errorf("truncated %v deltas", kind)
				}
				pos += n
				prev += d
				v.I[i] = prev
			}
		case relstore.TypeFloat:
			if pos+8*count > len(sec) {
				return fmt.Errorf("truncated float payload")
			}
			for i := 0; i < nrows; i++ {
				if kinds != nil && kinds[i] != kind {
					continue
				}
				v.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[pos:]))
				pos += 8
			}
		case relstore.TypeBool:
			nbytes := (count + 7) / 8
			if pos+nbytes > len(sec) {
				return fmt.Errorf("truncated bool bitset")
			}
			j := 0
			for i := 0; i < nrows; i++ {
				if kinds != nil && kinds[i] != kind {
					continue
				}
				v.I[i] = int64(sec[pos+j/8] >> (j % 8) & 1)
				j++
			}
			pos += nbytes
		case relstore.TypeString:
			ndictU, n := binary.Uvarint(sec[pos:])
			if n <= 0 || ndictU > uint64(count) {
				return fmt.Errorf("corrupt string dictionary size")
			}
			pos += n
			dict := make([]string, int(ndictU))
			for d := range dict {
				lU, n := binary.Uvarint(sec[pos:])
				if n <= 0 {
					return fmt.Errorf("corrupt dictionary entry length")
				}
				pos += n
				l := int(lU)
				if l < 0 || pos+l > len(sec) {
					return fmt.Errorf("dictionary entry overruns section")
				}
				dict[d] = string(sec[pos : pos+l])
				pos += l
			}
			for i := 0; i < nrows; i++ {
				if kinds != nil && kinds[i] != kind {
					continue
				}
				ref, n := binary.Uvarint(sec[pos:])
				if n <= 0 || ref >= uint64(len(dict)) {
					return fmt.Errorf("corrupt dictionary reference")
				}
				pos += n
				v.S[i] = dict[ref]
			}
		default: // TypeBytes, TypeXML
			for i := 0; i < nrows; i++ {
				if kinds != nil && kinds[i] != kind {
					continue
				}
				val, n, err := relstore.DecodeValue(sec[pos:])
				if err != nil {
					return fmt.Errorf("opaque value: %w", err)
				}
				pos += n
				v.Aux[i] = val
			}
		}
	}
	v.Present = true
	return nil
}
