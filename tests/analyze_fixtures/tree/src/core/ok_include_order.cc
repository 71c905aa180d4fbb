#include "core/ok_include_order.hh"

#include <map>
#include <vector>

#include "common/util.hh"
#include "core/design.hh"
