package device

import (
	"errors"
	"fmt"
	"strings"
)

// Class names the kind of device an at-rest object lives on. The values are
// what manifests, quarantine records and scrub incidents spell out.
type Class string

// The device classes.
const (
	PM  Class = "pm"
	SSD Class = "ssd"
	WAL Class = "wal"
)

// CorruptionError is a corruption with a location: which object of which
// device, which byte range of it, and what check failed. Both table formats
// return it — from Open, reads, iterators and scrubs — so that whoever meets
// it can name the table to quarantine. errors.Is(err, Kind) holds through
// Unwrap, Kind being the owning package's ErrCorrupt.
type CorruptionError struct {
	Kind   error
	Class  Class
	ID     uint64 // pmem.Addr or ssd.FileID
	Off    int64  // byte offset of the failing region within the object
	Len    int64  // its length (0 when unknown)
	Detail string // what check failed, e.g. "block crc"
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("%v: %s %d @%d+%d: %s", e.Kind, e.Class, e.ID, e.Off, e.Len, e.Detail)
}

func (e *CorruptionError) Unwrap() error { return e.Kind }

// Locate gives err the location at when err is a bare at.Kind, keeping
// whatever err said beyond the sentinel as the detail (at.Detail otherwise).
// Errors that are not at.Kind, and errors already located, pass through.
func (at CorruptionError) Locate(err error) error {
	var located *CorruptionError
	if err == nil || !errors.Is(err, at.Kind) || errors.As(err, &located) {
		return err
	}
	if d := strings.TrimPrefix(strings.TrimPrefix(err.Error(), at.Kind.Error()), ": "); d != "" {
		at.Detail = d
	}
	return &at
}
