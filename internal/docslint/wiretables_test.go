package docslint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"churnreg/internal/core"
	"churnreg/internal/wire"
)

// repeated matches a repeated section of a body cell, "n×kv" or
// "n × (int64 id · str addr)": it adds nothing to the fixed width.
var repeated = regexp.MustCompile(`\bn\s*×\s*(\([^)]*\)|\w+)`)

// fieldWidth is the encoded width of one body field: a typed field by its
// type ("int64 from", "str addr", taken empty), a bare one by its name.
func fieldWidth(field string) (int, bool) {
	words := strings.Fields(field)
	if len(words) == 1 {
		switch words[0] {
		case "from", "op", "reg", "sn", "val":
			return 8, true
		case "vv":
			return 16, true
		}
		return 0, false
	}
	switch words[0] {
	case "int64", "uint64":
		return 8, true
	case "uint32":
		return 4, true
	case "byte", "bool":
		return 1, true
	case "str":
		return 2, true
	}
	return 0, false
}

// bodyWidth sums a body cell's fixed-width fields. "—" is an empty body.
func bodyWidth(t *testing.T, where, cell string) int {
	cell = repeated.ReplaceAllString(strings.ReplaceAll(cell, "`", ""), "")
	if strings.TrimSpace(cell) == "—" {
		return 0
	}
	sum := 0
	for _, field := range strings.Split(cell, "·") {
		if field = strings.TrimSpace(field); field == "" {
			continue
		}
		w, ok := fieldWidth(field)
		if !ok {
			t.Errorf("%s: body field %q has no known width", where, field)
		}
		sum += w
	}
	return sum
}

// wireTableRows returns the rows of the table under heading in
// ARCHITECTURE.md §2, as cells with their line numbers.
func wireTableRows(t *testing.T, lines []string, heading string) (rows [][]string, at []int) {
	t.Helper()
	in := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "#"):
			in = strings.HasPrefix(line, heading)
		case in && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for j := range cells {
				cells[j] = strings.TrimSpace(cells[j])
			}
			if cells[0] != "type" && cells[0] != "kind" {
				rows = append(rows, cells)
				at = append(at, i+1)
			}
		}
	}
	if len(rows) == 0 {
		t.Fatalf("ARCHITECTURE.md: no table under %q", heading)
	}
	return rows, at
}

// encodedBody is the length of f's payload after the version and frame
// type bytes.
func encodedBody(t *testing.T, f wire.Frame) int {
	t.Helper()
	b, err := wire.AppendFrameBytes(nil, f)
	if err != nil {
		t.Fatalf("encode %v: %v", f.Type, err)
	}
	return len(b) - 4 - 2
}

// TestArchitectureWireTablesMatchCodec: the "Frame types" and "Message
// bodies" tables of ARCHITECTURE.md §2 add up to the bytes the encoder
// writes, row by row, with empty strings and no repeated entries. MSG's
// body is the message table's, and the reserved kinds have none.
func TestArchitectureWireTablesMatchCodec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(moduleRoot(t), "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	check := func(heading string, encoded func(byte) (name string, width int, ok bool)) {
		rows, at := wireTableRows(t, lines, heading)
		for i, cells := range rows {
			where := "ARCHITECTURE.md:" + strconv.Itoa(at[i])
			name := strings.Trim(cells[0], "`")
			if name == "MSG" || name == "—" || len(cells) < 3 {
				continue
			}
			n, err := strconv.Atoi(cells[1])
			if err != nil {
				t.Errorf("%s: byte %q is not a number", where, cells[1])
				continue
			}
			want, width, ok := encoded(byte(n))
			if !ok || want != name {
				t.Errorf("%s: %s is byte %d, which the codec calls %s", where, name, n, want)
				continue
			}
			if got := bodyWidth(t, where, cells[2]); got != width {
				t.Errorf("%s: %s body sums to %d B, the encoder writes %d B", where, name, got, width)
			}
		}
	}
	check("### Frame types", func(b byte) (string, int, bool) {
		ft := wire.FrameType(b)
		if ft < wire.FrameMsg || ft > wire.FrameView {
			return ft.String(), 0, false
		}
		return ft.String(), encodedBody(t, wire.Frame{Type: ft}), true
	})
	msgs := map[core.MsgKind]core.Message{}
	for _, m := range []core.Message{
		core.InquiryMsg{}, core.ReplyMsg{}, core.WriteMsg{}, core.AckMsg{},
		core.ReadMsg{}, core.DLPrevMsg{}, core.ForwardMsg{}, core.ForwardedMsg{},
	} {
		msgs[m.Kind()] = m
	}
	check("### Message bodies", func(b byte) (string, int, bool) {
		m, ok := msgs[core.MsgKind(b)]
		if !ok {
			return core.MsgKind(b).String(), 0, false
		}
		// The kind byte precedes the fields the table lists.
		return m.Kind().String(), encodedBody(t, wire.Frame{Type: wire.FrameMsg, Msg: m}) - 1, true
	})
}
