package a

// Test files are not counted.
