package fleet

import (
	"bytes"
	"testing"
)

// FuzzDecodeCampaign: no input makes DecodeCampaign panic, and whatever
// decodes is a valid campaign whose encoding decodes back to the same
// encoding. The corpus is seeded from every preset's EncodeCampaign
// bytes.
func FuzzDecodeCampaign(f *testing.F) {
	for _, c := range Presets() {
		data, err := EncodeCampaign(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("DecodeCampaign returned an invalid campaign: %v", err)
		}
		enc, err := EncodeCampaign(c)
		if err != nil {
			t.Fatalf("a decoded campaign does not encode: %v", err)
		}
		again, err := DecodeCampaign(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("an encoded campaign does not decode: %v\n%s", err, enc)
		}
		if enc2, _ := EncodeCampaign(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("EncodeCampaign/DecodeCampaign is not canonical:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
