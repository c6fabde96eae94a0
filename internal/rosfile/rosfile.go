// Package rosfile implements the Read Optimized Store container file
// format (paper §2.3): per-column files holding blocks of encoded, sorted
// column data followed by a footer with a position index. The position
// index maps tuple offsets to blocks and records per-block minimum and
// maximum values and null counts, which the scan uses for predicate
// pruning. Small column files can be concatenated into a single bundle
// file to reduce file count, exactly as the paper describes.
//
// ROS files are immutable: the writer produces a complete byte image that
// is written once and never modified.
package rosfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"eon/internal/colenc"
	"eon/internal/types"
)

// Magic trails every column file, guarding against truncation.
const Magic = 0x524F5346 // "ROSF"

// DefaultBlockRows is the number of tuples per encoded block.
const DefaultBlockRows = 4096

// ErrCorrupt is returned for malformed files.
var ErrCorrupt = errors.New("rosfile: corrupt file")

// BlockMeta describes one encoded block within a column file.
type BlockMeta struct {
	Offset    int64
	Length    int64
	RowStart  int64 // tuple offset of the block's first row
	RowCount  int64
	NullCount int64
	Min       types.Datum // min over non-null values; meaningless if all null
	Max       types.Datum
}

// Footer is the position index of a column file.
type Footer struct {
	Type     types.Type
	RowCount int64
	Blocks   []BlockMeta
}

// appendDatum serializes a datum for footer min/max storage.
func appendDatum(b []byte, d types.Datum) []byte {
	if d.Null {
		return append(b, 0)
	}
	switch d.K.Physical() {
	case types.Int64:
		b = append(b, 1)
		return binary.AppendVarint(b, d.I)
	case types.Float64:
		b = append(b, 2)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(d.F))
	case types.Varchar:
		b = append(b, 3)
		b = binary.AppendUvarint(b, uint64(len(d.S)))
		return append(b, d.S...)
	case types.Bool:
		b = append(b, 4)
		if d.B {
			return append(b, 1)
		}
		return append(b, 0)
	}
	return append(b, 0)
}

func readDatum(b []byte, pos int, t types.Type) (types.Datum, int, error) {
	if pos >= len(b) {
		return types.Datum{}, pos, ErrCorrupt
	}
	tag := b[pos]
	pos++
	d := types.Datum{K: t}
	switch tag {
	case 0:
		d.Null = true
		return d, pos, nil
	case 1:
		v, n := binary.Varint(b[pos:])
		if n <= 0 {
			return d, pos, ErrCorrupt
		}
		d.I = v
		return d, pos + n, nil
	case 2:
		if pos+8 > len(b) {
			return d, pos, ErrCorrupt
		}
		d.F = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		return d, pos + 8, nil
	case 3:
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 || pos+n+int(l) > len(b) {
			return d, pos, ErrCorrupt
		}
		d.S = string(b[pos+n : pos+n+int(l)])
		return d, pos + n + int(l), nil
	case 4:
		if pos >= len(b) {
			return d, pos, ErrCorrupt
		}
		d.B = b[pos] != 0
		return d, pos + 1, nil
	}
	return d, pos, fmt.Errorf("rosfile: bad datum tag %d: %w", tag, ErrCorrupt)
}

// WriteOptions controls column file construction.
type WriteOptions struct {
	// BlockRows is the tuples-per-block target (default DefaultBlockRows,
	// at most colenc.MaxBlockRows).
	BlockRows int
	// Sorted tells the encoder the column is in sort order, steering it
	// toward RLE/delta encodings.
	Sorted bool
	// Encoding forces a specific encoding for every block; nil means the
	// encoder chooses per block.
	Encoding *colenc.Encoding
}

// WriteColumn serializes a whole column into the ROS column-file format
// and returns the file image.
func WriteColumn(v *types.Vector, opts WriteOptions) []byte {
	blockRows := opts.BlockRows
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	blockRows = min(blockRows, colenc.MaxBlockRows)
	var out []byte
	var blocks []BlockMeta
	n := v.Len()
	for lo := 0; lo < n; lo += blockRows {
		hi := lo + blockRows
		if hi > n {
			hi = n
		}
		part := v.Slice(lo, hi)
		enc := colenc.Choose(part, opts.Sorted)
		if opts.Encoding != nil {
			enc = *opts.Encoding
		}
		payload := colenc.Encode(part, enc)
		meta := BlockMeta{
			Offset:   int64(len(out)),
			Length:   int64(len(payload)),
			RowStart: int64(lo),
			RowCount: int64(hi - lo),
		}
		meta.Min, meta.Max, meta.NullCount = blockStats(part)
		out = append(out, payload...)
		blocks = append(blocks, meta)
	}
	footer := Footer{Type: v.Typ, RowCount: int64(n), Blocks: blocks}
	fb := encodeFooter(footer)
	out = append(out, fb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fb)))
	out = binary.LittleEndian.AppendUint32(out, Magic)
	return out
}

func blockStats(v *types.Vector) (min, max types.Datum, nulls int64) {
	min = types.NullDatum(v.Typ)
	max = types.NullDatum(v.Typ)
	first := true
	for i := 0; i < v.Len(); i++ {
		d := v.Datum(i)
		if d.Null {
			nulls++
			continue
		}
		if first {
			min, max = d, d
			first = false
			continue
		}
		if d.Compare(min) < 0 {
			min = d
		}
		if d.Compare(max) > 0 {
			max = d
		}
	}
	return min, max, nulls
}

func encodeFooter(f Footer) []byte {
	var b []byte
	b = append(b, byte(f.Type))
	b = binary.AppendVarint(b, f.RowCount)
	b = binary.AppendUvarint(b, uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		b = binary.AppendVarint(b, blk.Offset)
		b = binary.AppendVarint(b, blk.Length)
		b = binary.AppendVarint(b, blk.RowStart)
		b = binary.AppendVarint(b, blk.RowCount)
		b = binary.AppendVarint(b, blk.NullCount)
		b = appendDatum(b, blk.Min)
		b = appendDatum(b, blk.Max)
	}
	return b
}

func decodeFooter(b []byte) (Footer, error) {
	var f Footer
	if len(b) < 1 {
		return f, ErrCorrupt
	}
	f.Type = types.Type(b[0])
	pos := 1
	rc, n := binary.Varint(b[pos:])
	if n <= 0 {
		return f, ErrCorrupt
	}
	pos += n
	f.RowCount = rc
	cnt, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return f, ErrCorrupt
	}
	pos += n
	// Every block entry takes several bytes, which bounds the count by
	// the bytes left.
	if cnt > uint64(len(b)-pos) {
		return f, ErrCorrupt
	}
	f.Blocks = make([]BlockMeta, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var blk BlockMeta
		var err error
		for _, dst := range []*int64{&blk.Offset, &blk.Length, &blk.RowStart, &blk.RowCount, &blk.NullCount} {
			v, n := binary.Varint(b[pos:])
			if n <= 0 {
				return f, ErrCorrupt
			}
			*dst = v
			pos += n
		}
		blk.Min, pos, err = readDatum(b, pos, f.Type)
		if err != nil {
			return f, err
		}
		blk.Max, pos, err = readDatum(b, pos, f.Type)
		if err != nil {
			return f, err
		}
		f.Blocks = append(f.Blocks, blk)
	}
	return f, nil
}

// Reader decodes a column file image.
type Reader struct {
	data   []byte
	footer Footer
}

// NewReader parses the footer of a column file image.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < 8 {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != Magic {
		return nil, fmt.Errorf("rosfile: bad magic: %w", ErrCorrupt)
	}
	flen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	if flen < 0 || flen > len(data)-8 {
		return nil, ErrCorrupt
	}
	footer, err := decodeFooter(data[len(data)-8-flen : len(data)-8])
	if err != nil {
		return nil, err
	}
	return &Reader{data: data, footer: footer}, nil
}

// Footer returns the parsed position index.
func (r *Reader) Footer() Footer { return r.footer }

// RowCount returns the number of tuples in the column.
func (r *Reader) RowCount() int64 { return r.footer.RowCount }

// Type returns the column's logical type.
func (r *Reader) Type() types.Type { return r.footer.Type }

// ReadBlock decodes block i into a vector.
func (r *Reader) ReadBlock(i int) (*types.Vector, error) {
	if i < 0 || i >= len(r.footer.Blocks) {
		return nil, fmt.Errorf("rosfile: block %d out of range", i)
	}
	blk := r.footer.Blocks[i]
	if blk.Offset < 0 || blk.Length < 0 || blk.Offset > int64(len(r.data)) ||
		blk.Length > int64(len(r.data))-blk.Offset {
		return nil, fmt.Errorf("rosfile: block %d spans [%d, +%d) of %d bytes: %w",
			i, blk.Offset, blk.Length, len(r.data), ErrCorrupt)
	}
	v, err := colenc.Decode(r.data[blk.Offset:blk.Offset+blk.Length], r.footer.Type)
	if err != nil {
		return nil, err
	}
	if int64(v.Len()) != blk.RowCount {
		return nil, fmt.Errorf("rosfile: block %d holds %d rows, footer says %d: %w",
			i, v.Len(), blk.RowCount, ErrCorrupt)
	}
	return v, nil
}

// ReadAll decodes the entire column into one vector. It pre-sizes the
// vector only once the footer's row count agrees with its blocks, each
// of which ReadBlock checks against the rows it decodes.
func (r *Reader) ReadAll() (*types.Vector, error) {
	var sum int64
	for _, blk := range r.footer.Blocks {
		if blk.RowCount < 0 || blk.RowCount > colenc.MaxBlockRows {
			return nil, ErrCorrupt
		}
		sum += blk.RowCount
	}
	if sum != r.footer.RowCount {
		return nil, fmt.Errorf("rosfile: footer counts %d rows, blocks %d: %w", r.footer.RowCount, sum, ErrCorrupt)
	}
	out := types.NewVector(r.footer.Type, int(sum))
	for i := range r.footer.Blocks {
		v, err := r.ReadBlock(i)
		if err != nil {
			return nil, err
		}
		out.AppendVector(v)
	}
	return out, nil
}

// BlockForRow returns the index of the block containing tuple offset row,
// or -1 if out of range.
func (r *Reader) BlockForRow(row int64) int {
	for i, blk := range r.footer.Blocks {
		if row >= blk.RowStart && row < blk.RowStart+blk.RowCount {
			return i
		}
	}
	return -1
}
