#include <string>

namespace mnoc {

void
openInput(const std::string &path, bool opened)
{
    // Composed before the check runs, on every call.
    fatalIf(!opened, "cannot open input: " + path);
    panicIf(path.empty(), std::string("empty input path").c_str());
}

} // namespace mnoc
