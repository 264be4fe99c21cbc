package obs

import (
	"encoding/json"
	"io"
)

// WriteChromeTrace writes the default registry's trace buffer as a
// standalone Chrome trace JSON array.
func WriteChromeTrace(w io.Writer) error {
	evs := Default.ChromeEvents()
	if evs == nil {
		evs = []map[string]any{}
	}
	return json.NewEncoder(w).Encode(evs)
}
