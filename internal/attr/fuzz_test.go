package attr

import "testing"

// addValueSeeds seeds f with FuzzDecodeValue's corpus: every sample value
// encoded, an empty buffer and a string whose length is over the limit.
func addValueSeeds(f *testing.F) {
	for _, v := range allSampleValues() {
		f.Add(AppendValue(nil, v))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0x7f})
}

// FuzzDecodeValue asserts the value decoder never panics and that anything
// it accepts re-encodes to a decodable value.
func FuzzDecodeValue(f *testing.F) {
	addValueSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := DecodeValue(data)
		if err != nil {
			return
		}
		again, _, err := DecodeValue(AppendValue(nil, v))
		if err != nil {
			t.Fatalf("re-decode of accepted value failed: %v", err)
		}
		if !again.Equal(v) {
			t.Fatalf("re-encode changed the value: %v vs %v", v, again)
		}
	})
}

// FuzzDecodeSet mirrors FuzzDecodeValue for attribute sets.
func FuzzDecodeSet(f *testing.F) {
	f.Add(AppendSet(nil, Set{"a": Int(1), "b": String("x")}))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := DecodeSet(data)
		if err != nil {
			return
		}
		again, _, err := DecodeSet(AppendSet(nil, s))
		if err != nil {
			t.Fatalf("re-decode of accepted set failed: %v", err)
		}
		if !again.Equal(s) {
			t.Fatal("re-encode changed the set")
		}
	})
}

// FuzzValidateMatchesDecode holds the walker to the decoder: for any bytes,
// read as one value and as a value list, SkipValue and DecodeValue, and
// SkipValues and DecodeValues, agree on whether to accept and on how many
// bytes they consume. Besides FuzzDecodeValue's corpus it is seeded with
// value lists: every sample value in one, one over MaxValues, and one with a
// byte after its end.
func FuzzValidateMatchesDecode(f *testing.F) {
	addValueSeeds(f)
	f.Add(AppendValues(nil, allSampleValues()))
	f.Add(AppendValues(nil, make([]Value, MaxValues+1)))
	f.Add(append(AppendValues(nil, []Value{String("x")}), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rest, err := SkipValue(data)
		_, drest, derr := DecodeValue(data)
		if (err == nil) != (derr == nil) || len(rest) != len(drest) {
			t.Fatalf("SkipValue: %d bytes left, err %v; DecodeValue: %d left, err %v", len(rest), err, len(drest), derr)
		}
		rest, err = SkipValues(data)
		_, drest, derr = DecodeValues(data)
		if (err == nil) != (derr == nil) || len(rest) != len(drest) {
			t.Fatalf("SkipValues: %d bytes left, err %v; DecodeValues: %d left, err %v", len(rest), err, len(drest), derr)
		}
	})
}
