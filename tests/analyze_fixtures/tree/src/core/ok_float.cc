// A float in a comment, a "float" in a string or an identifier such
// as floatBits is not the keyword.
const char *unit = "float";
long floatBits = 0;
