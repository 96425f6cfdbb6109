package protocol

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// Server accepts client connections and serves each one as a session:
// requests are dispatched to the backend through per-connection
// prepared-statement state, results stream back block-by-block.
//
// Connection I/O is buffered: a request arrives in one read(2) when it
// fits the read buffer, and a whole response (OK, Error, or
// Schema…Done) leaves in one write(2) when it fits the write buffer.
// Larger results stream, flushing whenever the buffer fills, so the
// server holds at most one buffer of unsent bytes per connection.
type Server struct {
	ln      net.Listener
	backend session.Backend

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve listens on addr (":0" for an ephemeral port) and serves
// connections until Close.
func Serve(addr string, b session.Backend) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return serve(ln, b), nil
}

// serve starts serving connections accepted from ln.
func serve(ln net.Listener, b session.Backend) *Server {
	s := &Server{ln: ln, backend: b, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// writeBufSize is a connection's response buffer: it holds a point
// lookup's whole response, and bounds what a large result keeps
// unsent before flushing.
const writeBufSize = 16 << 10

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for
// their handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one connection's request loop: a session is born with
// the connection and dies with it. Statement-level failures go back as
// MsgError and the session continues; protocol-level failures (bad
// magic, short reads, oversized frames) drop the connection — the
// stream can no longer be trusted. Each response is flushed once,
// after dispatch returns.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	sess := session.New(s.backend)
	reg := telemetry.DefaultRegistry()
	r := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, writeBufSize)
	w := newFrameWriter(bw)
	var buf []byte
	for {
		typ, payload, nbuf, err := ReadFrame(r, buf)
		buf = nbuf
		if err != nil {
			return // EOF on clean disconnect, junk otherwise; either way drop
		}
		reg.Counter(telemetry.CtrProtoRequests).Inc()
		derr := s.dispatch(sess, w, typ, payload)
		ferr := bw.Flush()
		if derr != nil || ferr != nil {
			reg.Counter(telemetry.CtrProtoErrors).Inc()
			if ferr != nil || !errors.Is(derr, errStatement) {
				return // write failure or protocol violation
			}
		}
	}
}

// errStatement marks statement-level failures already reported to the
// client as MsgError; the connection survives them.
var errStatement = errors.New("protocol: statement error")

// dispatch serves one request frame.
func (s *Server) dispatch(sess *session.Session, w *frameWriter, typ byte, payload []byte) error {
	switch typ {
	case MsgQuery:
		res, err := sess.Exec(context.Background(), string(payload))
		if err != nil {
			return w.sendError(err)
		}
		if res == nil {
			return w.send(MsgOK, nil)
		}
		return w.sendResult(res)

	case MsgPrepare:
		name, rest, err := DecodeString(payload)
		if err != nil {
			return err
		}
		n, err := sess.Prepare(name, string(rest))
		if err != nil {
			return w.sendError(err)
		}
		var pl [2]byte
		pl[0] = byte(n)
		pl[1] = byte(n >> 8)
		return w.send(MsgOK, pl[:])

	case MsgExecute:
		name, args, err := decodeExecute(payload)
		if err != nil {
			return err
		}
		res, err := sess.Execute(context.Background(), name, args)
		if err != nil {
			return w.sendError(err)
		}
		return w.sendResult(res)

	case MsgDealloc:
		name, _, err := DecodeString(payload)
		if err != nil {
			return err
		}
		if err := sess.Deallocate(name); err != nil {
			return w.sendError(err)
		}
		return w.send(MsgOK, nil)
	}
	return fmt.Errorf("protocol: unknown request type %d", typ)
}

// decodeExecute decodes a MsgExecute payload: the statement name and
// its arguments.
func decodeExecute(payload []byte) (string, []types.Value, error) {
	name, rest, err := DecodeString(payload)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < 2 {
		return "", nil, fmt.Errorf("protocol: truncated EXECUTE")
	}
	nargs := int(rest[0]) | int(rest[1])<<8
	rest = rest[2:]
	// Every value takes at least one byte, so the payload bounds the
	// allocation whatever count the frame claims.
	args := make([]types.Value, 0, min(nargs, len(rest)))
	for i := 0; i < nargs; i++ {
		v, r2, err := DecodeValue(rest)
		if err != nil {
			return "", nil, err
		}
		args = append(args, v)
		rest = r2
	}
	return name, args, nil
}

// frameWriter serializes responses; scratch is reused across frames so
// the steady-state request loop stops allocating payload buffers.
type frameWriter struct {
	w       io.Writer
	scratch []byte
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

func (fw *frameWriter) send(typ byte, payload []byte) error {
	return WriteFrame(fw.w, typ, payload)
}

// sendError reports a statement failure and keeps the session alive.
func (fw *frameWriter) sendError(err error) error {
	if werr := fw.send(MsgError, []byte(err.Error())); werr != nil {
		return werr
	}
	return errStatement
}

// sendResult streams one result: schema, blocks, done.
func (fw *frameWriter) sendResult(res *engine.Result) error {
	fw.scratch = AppendSchema(fw.scratch[:0], res.Names, res.Schema)
	if err := fw.send(MsgSchema, fw.scratch); err != nil {
		return err
	}
	var rows uint64
	for _, b := range res.Blocks {
		rows += uint64(b.NumTuples())
		fw.scratch = b.EncodeAppend(fw.scratch[:0])
		if err := fw.send(MsgBlock, fw.scratch); err != nil {
			return err
		}
	}
	fw.scratch = binary.LittleEndian.AppendUint64(fw.scratch[:0], rows)
	return fw.send(MsgDone, fw.scratch)
}
