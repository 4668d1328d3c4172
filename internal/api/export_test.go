package api

// MarshalBody is Client's body encoding, for the external test package's
// FuzzInlineCSR.
var MarshalBody = marshalBody
