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
	"fmt"
	"io"
	"net"
	"net/textproto"
	"net/url"
	"strings"
	"syscall"
	"time"
)

// maxHead caps a request's line and headers together; a longer head is
// refused with 431. It also caps how much of a request body is drained.
const maxHead = 8 << 10

// handler writes the body of a 200 answer to an admin request with query
// q. An error answers 500 with its text instead.
type handler func(w io.Writer, q url.Values) error

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

// maxConns bounds the connections answered at once; later ones wait in
// the listener's backlog.
const maxConns = 64

// serve accepts connections until ln fails, answering each on its own
// goroutine. Running out of file descriptors is waited out, not fatal.
func (s *adminServer) serve(ln net.Listener) error {
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
	query        url.Values
	body         bool // the head announces a body
}

// errBadRequest marks a head that is not an HTTP/1.x request.
var errBadRequest = errors.New("malformed request")

// readHead parses a request head from r, which yields at most maxHead
// bytes. It fails with errBadRequest on a malformed head, and otherwise
// with the read's own error (io.EOF once the cap is reached).
func readHead(r *bufio.Reader) (request, error) {
	tp := textproto.NewReader(r)
	line, err := tp.ReadLine()
	if err != nil {
		return request{}, err
	}
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !isToken(method) || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return request{}, errBadRequest
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return request{}, errBadRequest
	}
	h, err := tp.ReadMIMEHeader()
	var pe textproto.ProtocolError
	if errors.As(err, &pe) {
		return request{}, errBadRequest
	} else if err != nil {
		return request{}, err
	}
	cl := h.Get("Content-Length")
	return request{
		method: method, path: u.Path, query: u.Query(),
		body: (cl != "" && cl != "0") || h.Get("Transfer-Encoding") != "",
	}, nil
}

// isToken reports whether s is a non-empty HTTP token, as a method is.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return s != ""
}

// serveConn answers the one request c carries and closes c.
func (s *adminServer) serveConn(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(s.timeout))
	lim := &io.LimitedReader{R: c, N: maxHead}
	br := bufio.NewReader(lim)
	req, err := readHead(br)
	var a answer
	switch {
	case err == nil:
		a = s.respond(req)
	case lim.N == 0 && br.Buffered() == 0: // the head ran into the cap
		a = plain(431, "", "431 Request Header Fields Too Large\n")
	case errors.Is(err, errBadRequest):
		a = plain(400, "", "400 Bad Request\n")
	default: // the client went away or stalled past the deadline
		return
	}
	s.write(c, a, req.method == "HEAD")
	if err != nil || req.body {
		// Unread bytes at the close would send a reset, which can reach
		// the client before it has read the answer: half-close, and read
		// up to the cap more until the client closes too.
		if hc, ok := c.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite()
		}
		c.SetReadDeadline(time.Now().Add(s.timeout))
		lim.N = maxHead
		io.Copy(io.Discard, br)
	}
}

// answer is a response: its status code, its headers bar the framing
// ones (each "Name: value\r\n"), and its body.
type answer struct {
	code int
	hdr  string
	body []byte
}

// plain is a text answer with extra headers hdr.
func plain(code int, hdr, text string) answer {
	return answer{code, hdr + "Content-Type: text/plain; charset=utf-8\r\n", []byte(text)}
}

// respond routes req to its answer.
func (s *adminServer) respond(req request) answer {
	rt, ok := s.routes[req.path]
	if !ok {
		return plain(404, "", "404 page not found\n")
	}
	if req.method != rt.method && !(req.method == "HEAD" && rt.method == "GET") {
		allow := rt.method
		if allow == "GET" {
			allow = "GET, HEAD"
		}
		return plain(405, "Allow: "+allow+"\r\n", "Method Not Allowed\n")
	}
	var body bytes.Buffer
	if err := rt.serve(&body, req.query); err != nil {
		return plain(500, "", err.Error()+"\n")
	}
	ctype := rt.ctype
	if ctype == "" {
		ctype = bodyType(body.Bytes())
	}
	return answer{200, "Content-Type: " + ctype + "\r\n", body.Bytes()}
}

// bodyType is the Content-Type of a body whose route leaves it open: a
// named profile is gzipped protobuf at debug=0, and text otherwise.
func bodyType(b []byte) string {
	if bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		return "application/octet-stream"
	}
	return "text/plain; charset=utf-8"
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}

// write sends a, bar its body when the request was a HEAD, in one write.
func (s *adminServer) write(c net.Conn, a answer, head bool) {
	b := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\n%sContent-Length: %d\r\nConnection: close\r\n\r\n",
		a.code, statusText[a.code], a.hdr, len(a.body))
	if !head {
		b = append(b, a.body...)
	}
	c.SetWriteDeadline(time.Now().Add(s.timeout))
	c.Write(b)
}
