package dep

// HashKey exposes the index hash to the external tests.
var HashKey = hashKey
