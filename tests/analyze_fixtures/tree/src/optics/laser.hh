#ifndef MNOC_OPTICS_LASER_HH
#define MNOC_OPTICS_LASER_HH

#include "noc/ring.hh"

namespace mnoc {

struct Laser
{
    WattPower power;
};

} // namespace mnoc

#endif // MNOC_OPTICS_LASER_HH
