// Leading comments and trailing blank lines are fine.
#ifndef MNOC_CORE_OK_HEADER_GUARD_HH
#define MNOC_CORE_OK_HEADER_GUARD_HH
#endif // MNOC_CORE_OK_HEADER_GUARD_HH

