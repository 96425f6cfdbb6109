package protocol

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// FuzzDecodeResult feeds arbitrary bytes through the client's result
// decoding: a MsgSchema payload, then a MsgBlock payload decoded under
// that schema and read row by row. Malformed input must come back as an
// error, never a panic.
func FuzzDecodeResult(f *testing.F) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Char("s", 4),
		types.Col("f", types.Float64), types.Col("d", types.Date))
	b := block.New(sch, 3*sch.Stride(), nil)
	for i := 0; i < 3; i++ {
		r := b.AppendRowTo()
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.StrVal("ab"))
		types.PutValue(r, sch, 2, types.FloatVal(1.5))
		types.PutValue(r, sch, 3, types.DateVal(int64(i)))
	}
	f.Add(AppendSchema(nil, []string{"x"}, sch), b.EncodeAppend(nil))
	f.Add(AppendSchema(nil, nil, sch), []byte{})
	f.Fuzz(func(t *testing.T, schema, blk []byte) {
		sch, err := DecodeSchema(schema)
		if err != nil {
			return
		}
		if sch.Stride() <= 0 {
			t.Fatalf("DecodeSchema accepted a schema of stride %d", sch.Stride())
		}
		b, err := block.Decode(sch, blk, nil)
		if err != nil {
			return
		}
		for i := 0; i < b.NumTuples(); i++ {
			for c := 0; c < sch.NumCols(); c++ {
				_ = b.Get(i, c)
			}
		}
	})
}

// FuzzReadRequest feeds arbitrary bytes through the server's request
// path: frames read through a buffered reader, then each payload
// through the decoder its request type uses. Malformed input must come
// back as an error, never a panic.
func FuzzReadRequest(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, MsgQuery, []byte("SELECT 1"))
	WriteFrame(&seed, MsgPrepare, append(AppendString(nil, "lk"), "SELECT a FROM t WHERE b = $1"...))
	exec := AppendString(nil, "lk")
	exec = append(exec, 4, 0)
	for _, v := range []types.Value{types.IntVal(7), types.FloatVal(2.5), types.StrVal("x"), types.NullVal(types.Int64)} {
		exec = AppendValue(exec, v)
	}
	WriteFrame(&seed, MsgExecute, exec)
	WriteFrame(&seed, MsgDealloc, AppendString(nil, "lk"))
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			typ, payload, nbuf, err := ReadFrame(r, buf)
			buf = nbuf
			if err != nil {
				return
			}
			switch typ {
			case MsgPrepare, MsgDealloc:
				DecodeString(payload)
			case MsgExecute:
				decodeExecute(payload)
			}
		}
	})
}
