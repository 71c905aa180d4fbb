#include <cstdlib>
#include <string>

namespace mnoc {

int
windowFromEnvironment()
{
    const char *text = std::getenv("MNOC_ADAPT_WINDOW");
    return text != nullptr ? std::atoi(text) : 32;
}

} // namespace mnoc
