package core

// ReassembleEnd exposes the transfer-end path to the external tests, which
// hold it to the parse-based reference over the oracle's scenario grid
// (package oracle imports core, so those tests cannot live in package core).
var ReassembleEnd = (*Analyzer).reassembleEnd
