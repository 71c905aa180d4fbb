#define DB_TO_LINEAR(x) std::pow(10.0, (x) / 10.0)
double attenuation(double loss) { return std::pow(10, loss / 10.0); }
