#ifndef MNOC_OPTICS_OK_UNIT_PARAM_HH
#define MNOC_OPTICS_OK_UNIT_PARAM_HH
// The type carries the unit; a double names a unit-free quantity,
// and a comment's `double loss_db` never counts.
double budget(DecibelLoss coupler_loss_db, double split_ratio);
struct Source { WattPower power_mw; double arm_width = 0.0; };
#endif // MNOC_OPTICS_OK_UNIT_PARAM_HH
