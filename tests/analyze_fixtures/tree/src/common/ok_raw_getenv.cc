#include "common/knobs.hh"

namespace mnoc {

long long
windowFromEnvironment()
{
    return readKnob("MNOC_ADAPT_WINDOW").number;
}

} // namespace mnoc
