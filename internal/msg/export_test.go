package msg

import (
	"reflect"
	"slices"
)

// PayloadTags returns every registered tag in order, with its payload
// type, for the codec tests in package msg_test, which import the
// packages that register real payloads.
func PayloadTags() ([]uint16, []reflect.Type) {
	var tags []uint16
	for tag := range codecByTag {
		tags = append(tags, uint16(tag))
	}
	slices.Sort(tags)
	types := make([]reflect.Type, len(tags))
	for i, tag := range tags {
		types[i] = codecByTag[uint64(tag)].typ
	}
	return tags, types
}

// ErrorCodes returns every registered error code in order, with its
// sentinel, for the tests in package msg_test.
func ErrorCodes() ([]uint16, []error) {
	s := slices.SortedFunc(slices.Values(errorTable), func(a, b coded) int { return int(a.code) - int(b.code) })
	codes, errs := make([]uint16, len(s)), make([]error, len(s))
	for i, e := range s {
		codes[i], errs[i] = e.code, e.err
	}
	return codes, errs
}
