float marginSum(double a, double b);
double margin = static_cast<float>(0.5);
