module galo/bench

go 1.24

require galo v0.0.0

replace galo => ../
