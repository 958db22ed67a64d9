package dtrace

// ExportBuffer is the exporter's queue bound, for the external tests.
const ExportBuffer = exportBuffer
