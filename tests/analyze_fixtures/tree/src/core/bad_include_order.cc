#include <vector>
#include "core/bad_include_order.hh"

#include <map>
#include "common/util.hh"

#include "core/zeta.hh"
#include "core/alpha.hh"

#include <string>
