package testenv

import "abivm/internal/fault"

// oneFile is the file layer Damaged writes an artifact through: one
// file, whatever the name.
type oneFile struct{ data []byte }

func (f *oneFile) ReadFile(string) ([]byte, error) { return f.data, nil }
func (f *oneFile) WriteFile(_ string, data []byte) error {
	f.data = append([]byte(nil), data...)
	return nil
}
func (f *oneFile) AppendFile(_ string, data []byte) error {
	f.data = append(f.data, data...)
	return nil
}
func (f *oneFile) Rename(string, string) error { return nil }
func (f *oneFile) Remove(string) error         { return nil }
func (f *oneFile) List() ([]string, error)     { return nil, nil }

// Damaged returns what a non-empty valid artifact reads back as after
// each of fault.Media's byte-level damage kinds — a torn append, a
// flipped bit, a truncated write — under each of n seeds: the corpus a
// decoder's fuzz target starts from.
func Damaged(valid []byte, n int) [][]byte {
	var out [][]byte
	for seed := int64(0); seed < int64(n); seed++ {
		for _, rates := range []fault.MediaRates{{TornAppend: 1}, {BitFlip: 1}, {Truncate: 1}} {
			f := &oneFile{}
			m := fault.NewMedia(f, seed, rates)
			write := m.WriteFile
			if rates.TornAppend > 0 {
				write = m.AppendFile
			}
			// oneFile never fails, and Media reports success whatever it did.
			write("artifact", valid)
			out = append(out, f.data)
		}
	}
	return out
}
