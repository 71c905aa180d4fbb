// Only base 10 is a dB conversion, and never in a comment or a
// string: pow(10, x / 10).
const char *doc = "pow(10, x / 10)";
double growth = std::pow(2.0, x) + std::pow(100, x) + std::pow(x, 10) +
                std::pow(10.5, x);
