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
