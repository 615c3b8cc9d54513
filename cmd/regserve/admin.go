package main

// The admin API's HTTP/1.1 responder. It speaks the subset an operator's
// curl, a scraper and `go tool pprof` need: one request per connection,
// answered with Connection: close (no keep-alive), a request head of at
// most maxHead bytes read under a deadline, and no request bodies — a
// body a client sends anyway is ignored, and drained before the close.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"churnreg/internal/tcp"
)

// maxHead caps a request's line and headers together; a longer head is
// refused with 431. It also caps how much of a request body is drained.
const maxHead = 8 << 10

// handler writes the body of a 200 answer to an admin request with query
// q (nil when the target has none) into w, which the responder frames. An
// error answers 500 with its text instead.
type handler func(w *bytes.Buffer, q url.Values) error

// route is one entry of the admin route table, which is keyed by path.
type route struct {
	method string // GET routes answer HEAD as well
	ctype  string // Content-Type of a 200; "" picks it by the body (see bodyType)
	serve  handler
}

// adminServer answers admin requests on a listener through its routes.
type adminServer struct {
	routes map[string]route
	// timeout bounds reading a request's head, writing its answer and
	// draining its body, each.
	timeout time.Duration
}

// stream is what the responder needs of a connection: a *tcp.Conn, or a
// test's net.Conn.
type stream interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// maxConns bounds the connections answered at once; later ones wait in
// the listener's backlog.
const maxConns = 64

// serve accepts connections until ln fails, answering each on its own
// goroutine. Running out of file descriptors is waited out, not fatal.
func (s *adminServer) serve(ln *tcp.Listener) error {
	slots := make(chan struct{}, maxConns)
	for {
		c, err := ln.Accept()
		if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			return err
		}
		slots <- struct{}{}
		go func() {
			defer func() { <-slots }()
			s.serveConn(c)
		}()
	}
}

// request is what the responder reads of a request's head.
type request struct {
	method, path string
	query        url.Values // nil when the target has no query
	body         bool       // the head announces a body
}

// errBadRequest marks a head that is not an HTTP/1.x request.
var errBadRequest = errors.New("malformed request")

// readHead parses a request head from r, which yields at most maxHead
// bytes. It fails with errBadRequest on a malformed head, and otherwise
// with the read's own error (io.EOF once the cap is reached). Of the
// headers it reads only whether a body follows; it keeps none of them.
func readHead(r *bufio.Reader) (request, error) {
	line, err := readLine(r)
	if err != nil {
		return request{}, err
	}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !isToken(method) || (string(proto) != "HTTP/1.1" && string(proto) != "HTTP/1.0") {
		return request{}, errBadRequest
	}
	u, err := url.ParseRequestURI(string(target))
	if err != nil {
		return request{}, errBadRequest
	}
	req := request{method: string(method), path: u.Path}
	if u.RawQuery != "" {
		req.query = u.Query()
	}
	if req.body, err = readHeaders(r); err != nil {
		return request{}, err
	}
	return req, nil
}

// readLine returns r's next line without its line end, in r's buffer
// until r's next read. A line longer than the buffer is gathered into a
// copy; the responder's buffer holds a whole maxHead head, so there that
// happens only to a head cut at the cap, whose next read ends in io.EOF.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, more, err := r.ReadLine()
	if !more {
		return line, err
	}
	long := append([]byte(nil), line...)
	for more {
		if line, more, err = r.ReadLine(); err != nil {
			return nil, err
		}
		long = append(long, line...)
	}
	return long, nil
}

// readHeaders reads the header lines up to the blank line that ends the
// head and reports whether they announce a body: a Content-Length other
// than empty or 0, or a Transfer-Encoding that is not empty. A line must
// be "name: value", the name a token and the value free of control bytes
// but tab. That refuses whitespace before the colon and a folded
// continuation line, as RFC 7230 (section 3.2.4) lets a server.
func readHeaders(r *bufio.Reader) (body bool, err error) {
	for {
		line, err := readLine(r)
		if err != nil {
			return false, err
		}
		if len(line) == 0 {
			return body, nil
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || !isToken(name) || !isFieldValue(value) {
			return false, errBadRequest
		}
		switch value = bytes.Trim(value, " \t"); {
		case bytes.EqualFold(name, []byte("Content-Length")):
			body = body || len(value) > 0 && string(value) != "0"
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			body = body || len(value) > 0
		}
	}
}

// isToken reports whether s is a non-empty HTTP token, as a method and a
// header name are.
func isToken[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return len(s) > 0
}

// isFieldValue reports whether b holds no control byte but tab.
func isFieldValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// exchange is what answering one connection needs, kept in a pool across
// connections: the head reader, which holds a whole maxHead head, its
// limit, and the body and answer buffers.
type exchange struct {
	lim  io.LimitedReader
	br   *bufio.Reader
	body bytes.Buffer
	out  []byte
}

var exchanges = sync.Pool{New: func() any {
	x := new(exchange)
	x.br = bufio.NewReaderSize(&x.lim, maxHead)
	return x
}}

// maxKept bounds the buffers an exchange takes back to the pool: a
// profile's body is let go rather than kept for every later request.
const maxKept = 64 << 10

// release returns x to the pool, holding no connection.
func (x *exchange) release() {
	x.lim.R = nil
	x.br.Reset(&x.lim)
	x.body.Reset()
	if x.body.Cap() > maxKept || cap(x.out) > maxKept {
		x.body, x.out = bytes.Buffer{}, nil
	}
	exchanges.Put(x)
}

// serveConn answers the one request c carries and closes c.
func (s *adminServer) serveConn(c stream) {
	defer c.Close()
	x := exchanges.Get().(*exchange)
	defer x.release()
	c.SetReadDeadline(time.Now().Add(s.timeout))
	x.lim = io.LimitedReader{R: c, N: maxHead}
	req, err := readHead(x.br)
	var a answer
	switch {
	case err == nil:
		a = s.respond(req, &x.body)
	case x.lim.N == 0 && x.br.Buffered() == 0: // the head ran into the cap
		a = plain(&x.body, 431, "", "431 Request Header Fields Too Large\n")
	case errors.Is(err, errBadRequest):
		a = plain(&x.body, 400, "", "400 Bad Request\n")
	default: // the client went away or stalled past the deadline
		return
	}
	s.write(c, x, a, req.method == "HEAD")
	if err != nil || req.body {
		// Unread bytes at the close would send a reset, which can reach
		// the client before it has read the answer: half-close, and read
		// up to the cap more until the client closes too.
		if hc, ok := c.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite()
		}
		c.SetReadDeadline(time.Now().Add(s.timeout))
		x.lim.N = maxHead
		io.Copy(io.Discard, x.br)
	}
}

// answer is a response bar its body, which is the exchange's: its status
// code, its headers bar Content-Type and the framing ones (each
// "Name: value\r\n"), and its Content-Type.
type answer struct {
	code       int
	hdr, ctype string
}

// textPlain is the Content-Type of a text answer.
const textPlain = "text/plain; charset=utf-8"

// plain is a text answer with extra headers hdr, its text put in body.
func plain(body *bytes.Buffer, code int, hdr, text string) answer {
	body.Reset()
	body.WriteString(text)
	return answer{code, hdr, textPlain}
}

// respond routes req to its answer, whose body it writes into body.
func (s *adminServer) respond(req request, body *bytes.Buffer) answer {
	rt, ok := s.routes[req.path]
	if !ok {
		return plain(body, 404, "", "404 page not found\n")
	}
	if req.method != rt.method && !(req.method == "HEAD" && rt.method == "GET") {
		allow := rt.method
		if allow == "GET" {
			allow = "GET, HEAD"
		}
		return plain(body, 405, "Allow: "+allow+"\r\n", "Method Not Allowed\n")
	}
	if err := rt.serve(body, req.query); err != nil {
		return plain(body, 500, "", err.Error()+"\n")
	}
	ctype := rt.ctype
	if ctype == "" {
		ctype = bodyType(body.Bytes())
	}
	return answer{200, "", ctype}
}

// bodyType is the Content-Type of a body whose route leaves it open: a
// named profile is gzipped protobuf at debug=0, and text otherwise.
func bodyType(b []byte) string {
	if bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		return "application/octet-stream"
	}
	return textPlain
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}

// write sends a with x's body, bar the body when the request was a HEAD,
// in one write.
func (s *adminServer) write(c stream, x *exchange, a answer, head bool) {
	b := append(x.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(a.code), 10)
	b = append(b, ' ')
	b = append(b, statusText[a.code]...)
	b = append(b, "\r\n"...)
	b = append(b, a.hdr...)
	b = append(b, "Content-Type: "...)
	b = append(b, a.ctype...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(x.body.Len()), 10)
	b = append(b, "\r\nConnection: close\r\n\r\n"...)
	if !head {
		b = append(b, x.body.Bytes()...)
	}
	x.out = b
	c.SetWriteDeadline(time.Now().Add(s.timeout))
	c.Write(b)
}
