#ifndef MNOC_OPTICS_BAD_UNIT_PARAM_HH
#define MNOC_OPTICS_BAD_UNIT_PARAM_HH
double budget(double coupler_loss_db, int taps);
struct Source { double power_mw = 0.0; };
#endif // MNOC_OPTICS_BAD_UNIT_PARAM_HH
