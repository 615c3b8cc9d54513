package churnreg

import "fmt"

// The register's wire value domain is int64 (the protocols version and
// compare values; payload bytes are irrelevant to them). StringTable
// interns arbitrary string payloads to register values on the writer side
// and resolves them on the reader side — the pattern the examples use for
// human-readable state. It models an out-of-band content store (in a real
// deployment: a content-addressed blob store); the register holds the
// reference.
type StringTable struct {
	byVal map[int64]string
	byStr map[string]int64
	next  int64
}

// NewStringTable returns an empty interning table.
func NewStringTable() *StringTable {
	return &StringTable{
		byVal: make(map[int64]string),
		byStr: make(map[string]int64),
	}
}

// Intern returns the register value for s, allocating one if new.
func (t *StringTable) Intern(s string) int64 {
	if v, ok := t.byStr[s]; ok {
		return v
	}
	t.next++
	t.byVal[t.next] = s
	t.byStr[s] = t.next
	return t.next
}

// Lookup resolves a register value back to its string.
func (t *StringTable) Lookup(v int64) (string, bool) {
	s, ok := t.byVal[v]
	return s, ok
}

// Len returns the number of interned strings.
func (t *StringTable) Len() int { return len(t.byVal) }

// WriteString writes a string payload through the cluster's register
// using the table for interning.
func (c *SimCluster) WriteString(t *StringTable, s string) error {
	return c.Write(t.Intern(s))
}

// ReadString reads the register and resolves the payload via the table.
func (c *SimCluster) ReadString(t *StringTable) (string, error) {
	return t.resolve(c.Read())
}

// WriteString writes a string payload through the TCP cluster's register.
func (c *NetCluster) WriteString(t *StringTable, s string) error {
	return c.Write(t.Intern(s))
}

// ReadString reads the TCP cluster's register and resolves the payload.
func (c *NetCluster) ReadString(t *StringTable) (string, error) {
	return t.resolve(c.Read())
}

// resolve turns a register read into the string it references.
func (t *StringTable) resolve(v int64, err error) (string, error) {
	if err != nil {
		return "", err
	}
	s, ok := t.Lookup(v)
	if !ok {
		return "", fmt.Errorf("churnreg: value %d not in string table (initial value or foreign writer?)", v)
	}
	return s, nil
}
