#include "core/shared_primary.hh"

#include <string>

#include "common/util.hh"
