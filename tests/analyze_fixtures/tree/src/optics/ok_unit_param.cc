#include "optics/ok_unit_param.hh"

// unit-param covers headers only.
double loss_db = 0.0;
